"""Independent references for the benchmark's correctness checks.

Nothing here imports matroidlab.  Each reference recomputes a quantity the
program reports from first principles, so a check compares two computations
that share no code:

* rank oracles of our own: bit-packed GF(2) elimination for binary column
  matroids and union-find for graphic ones;
* the characteristic polynomial chi(M) summed over all subsets with that
  rank, and the closed form for parallel connections of circuits;
* Whitney's broken-circuit theorem, which reads the f-vector of BC(M) off
  the coefficients of chi(M);
* a brute-force recount of the candidate lower ideal of one ordering,
  built from the paper's definition with our own fundamental cocircuits;
* sympy's reduced Groebner basis of a quotient, and the verdict obtained by
  reducing the candidate monomials modulo that basis.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb


# -- rank oracles --------------------------------------------------------------


class BinaryOracle:
    """Rank of column sets of a 0/1 matrix over GF(2); columns are bitmasks."""

    def __init__(self, labels, rows):
        self.labels = tuple(labels)
        self.column = {
            lab: sum(1 << i for i, row in enumerate(rows) if row[j] % 2)
            for j, lab in enumerate(self.labels)
        }

    def rank(self, subset) -> int:
        return _xor_rank(self.column[lab] for lab in subset)


def _xor_rank(vectors) -> int:
    """Rank over GF(2) of vectors packed into ints."""
    pivots: dict = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


class GraphicOracle:
    """Rank of edge sets of a graph: the edges a spanning forest keeps."""

    def __init__(self, labels, edges):
        self.labels = tuple(labels)
        self.ends = dict(zip(self.labels, (tuple(e) for e in edges)))

    def rank(self, subset) -> int:
        parent: dict = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        kept = 0
        for lab in subset:
            u, v = self.ends[lab]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                kept += 1
        return kept


def bases(oracle) -> list:
    r = oracle.rank(oracle.labels)
    return [b for b in combinations(oracle.labels, r) if oracle.rank(b) == r]


def circuits(oracle) -> list:
    """Minimal dependent sets, by increasing size."""
    found: list = []
    for k in range(1, len(oracle.labels) + 1):
        for c in combinations(oracle.labels, k):
            s = frozenset(c)
            if any(f <= s for f in found):
                continue
            if oracle.rank(c) < k:
                found.append(s)
    return found


# -- characteristic polynomials and Whitney's theorem ----------------------------
# Polynomials in lambda are integer coefficient lists, constant term first.


def _pmul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pdiv_linear(a, root: int) -> list:
    """Exact quotient of a by (lambda - root); raises if the remainder is not 0."""
    out = [0] * (len(a) - 1)
    carry = 0
    for i in range(len(a) - 1, 0, -1):
        carry = a[i] + carry * root
        out[i - 1] = carry
    if a[0] + carry * root != 0:
        raise ArithmeticError("polynomial does not vanish at the root")
    return out


def char_poly(oracle) -> list:
    """chi(lambda) = sum over S of (-1)^|S| lambda^(r(E) - r(S))."""
    labels = oracle.labels
    r = oracle.rank(labels)
    coeffs = [0] * (r + 1)
    for k in range(len(labels) + 1):
        sign = -1 if k % 2 else 1
        for s in combinations(labels, k):
            coeffs[r - oracle.rank(s)] += sign
    return coeffs


def circuit_chi(s: int) -> list:
    """chi of the s-element circuit U(s-1, s): ((l-1)^s + (-1)^s (l-1)) / l."""
    p = [1]
    for _ in range(s):
        p = _pmul(p, [-1, 1])
    tail = [-1, 1] if s % 2 == 0 else [1, -1]
    num = [a + (tail[i] if i < 2 else 0) for i, a in enumerate(p)]
    if num[0] != 0:
        raise ArithmeticError("circuit numerator has a constant term")
    return num[1:]


def glued_chi(sizes) -> list:
    """chi of iterated parallel connections of circuits of the given sizes.

    chi(P(M, N)) = chi(M) chi(N) / (lambda - 1), whatever the basepoints,
    so the theta and phi instances of one composition share this value.
    """
    out = [1]
    for i, s in enumerate(sizes):
        out = _pmul(out, circuit_chi(s))
        if i:
            out = _pdiv_linear(out, 1)
    return out


def fh_from_chi(chi) -> tuple:
    """(f, h) of BC(M) from chi(M) by Whitney's broken-circuit theorem.

    f[i] = |coefficient of lambda^(r-i)| counts the NBC sets with i
    elements; h is defined by sum_i f_i t^i (1-t)^(r-i) = sum_k h_k t^k.
    """
    r = len(chi) - 1
    f = []
    for i in range(r + 1):
        c = chi[r - i] * (-1) ** i
        if c < 0:
            raise ArithmeticError("chi coefficients do not alternate in sign")
        f.append(c)
    h = [
        sum(f[i] * (-1) ** (k - i) * comb(r - i, k - i) for i in range(k + 1))
        for k in range(r + 1)
    ]
    return tuple(f), tuple(h)


# -- brute-force recount of the candidate lower ideal ----------------------------


def recount(oracle, ordering, circuit_list, h) -> tuple:
    """(count per degree, predicted reason, lower ideal) for one ordering.

    The candidate monomials follow the paper's definition: a circuit with a
    single cobasis element e gives x_e^(|C|-1); any other circuit gives the
    product of x_{d(f)} over its elements f other than the smallest, where
    d(f) is f's own position for cobasis elements and, for a basis element,
    the smallest position inside its fundamental cocircuit.  The lower ideal
    is counted point by point over the exponent box the pure powers bound.
    The reason is "wrong_cardinality" exactly when the count differs from h
    in some degree, else "" (the cardinality stage passes).  The lower ideal
    is returned as exponent tuples over x1..xt.
    """
    labels = tuple(ordering)
    n = len(labels)
    r = oracle.rank(labels)
    t = n - r
    pos = {lab: i + 1 for i, lab in enumerate(labels)}
    basis = labels[t:]
    if oracle.rank(basis) != r:
        raise ValueError("ordering does not end in a basis")
    d = list(range(1, n + 1))
    for b in basis:
        rest = [x for x in basis if x != b]
        coc = [b] + [e for e in labels[:t] if oracle.rank(rest + [e]) == r]
        d[pos[b] - 1] = min(pos[e] for e in coc)
    gens = []
    for c in circuit_list:
        cob = sorted(pos[e] for e in c if pos[e] <= t)
        exps = [0] * (t + 1)
        if len(cob) == 1:
            exps[cob[0]] = len(c) - 1
        else:
            least = min(pos[e] for e in c)
            for e in c:
                if pos[e] != least:
                    exps[d[pos[e] - 1]] += 1
        gens.append(tuple(exps[1:]))
    bounds = []
    for v in range(t):
        pure = [g[v] for g in gens if g[v] and sum(g) == g[v]]
        if not pure:
            raise ValueError(f"no pure power of x{v + 1}")
        bounds.append(min(pure))
    counts = [0] * (sum(b - 1 for b in bounds) + 1)
    lower = []
    for point in product(*(range(b) for b in bounds)):
        if not any(all(p >= q for p, q in zip(point, g)) for g in gens):
            counts[sum(point)] += 1
            lower.append(point)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    width = max(len(counts), len(h))
    same = all(
        (counts[k] if k < len(counts) else 0) == (h[k] if k < len(h) else 0)
        for k in range(width)
    )
    return tuple(counts), "" if same else "wrong_cardinality", lower


# -- sympy's Groebner basis --------------------------------------------------------


def _fraction(domain, c) -> Fraction:
    v = domain.to_sympy(c)
    return Fraction(int(v.p), int(v.q))


def sympy_reference(generators, nvars: int, char: int, candidates) -> dict:
    """sympy's reduced grlex basis (x1 > x2 > ...) and the verdict it implies.

    generators: list of {exponent tuple: Fraction or int} dicts.
    candidates: exponent tuples of the candidate monomials.
    Returns {"basis": frozenset of polynomials as frozensets of
    (exponents, coefficient)}, "independent": bool, "dim": int or None}.
    Coefficients are reduced mod 2 when char == 2.
    """
    import sympy

    xs = sympy.symbols(f"x1:{nvars + 1}")
    domain = {"modulus": 2} if char == 2 else {"domain": "QQ"}

    def mono(e):
        return sympy.Mul(*(x ** a for x, a in zip(xs, e)))

    def expr(poly):
        terms = ((Fraction(c), e) for e, c in poly.items())
        return sympy.Add(*(sympy.Rational(q.numerator, q.denominator) * mono(e) for q, e in terms))

    gb = sympy.groebner([expr(g) for g in generators], *xs, order="grlex", **domain)

    def canon(p) -> frozenset:
        dom = p.domain
        out = []
        for monom, c in p.terms():
            q = _fraction(dom, c)
            if char == 2:
                q = Fraction(int(q) % 2)
            if q:
                out.append((tuple(monom), q))
        return frozenset(out)

    basis = frozenset(canon(p) for p in gb.polys)
    leads = [p.monoms(order="grlex")[0] for p in gb.polys]
    dim = None
    pure = []
    for v in range(nvars):
        powers = [m[v] for m in leads if m[v] and sum(m) == m[v]]
        pure.append(min(powers) if powers else None)
    if all(p is not None for p in pure):
        dim = sum(
            1 for point in product(*(range(p) for p in pure))
            if not any(all(a >= b for a, b in zip(point, m)) for m in leads)
        )
    rows = []
    for e in candidates:
        _, rem = gb.reduce(mono(e))
        rp = sympy.Poly(rem, *xs, **domain)
        rows.append(dict(canon(rp)) if not rp.is_zero else {})
    independent = _rank(rows, char) == len(rows)
    return {"basis": basis, "independent": independent, "dim": dim}


def _rank(rows, char: int) -> int:
    """Rank of sparse rows {column key: Fraction} over GF(2) or Q."""
    cols = sorted({k for row in rows for k in row})
    index = {k: i for i, k in enumerate(cols)}
    if char == 2:
        return _xor_rank(sum(1 << index[k] for k, c in row.items() if int(c) % 2) for row in rows)
    dense = [[row.get(k, Fraction(0)) for k in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, len(dense)) if dense[i][j] != 0), None)
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        for i in range(len(dense)):
            if i != rank and dense[i][j] != 0:
                f = dense[i][j] / dense[rank][j]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[rank])]
        rank += 1
    return rank
