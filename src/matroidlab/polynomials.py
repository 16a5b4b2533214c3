"""Exact multivariate polynomials, Groebner bases, and Artinian quotients.

Variables are 1-based indices displayed as x1, x2, ...  A Monomial is
its dense exponent tuple with trailing zeros stripped, the one format of
candidates, staircases, Macaulay columns and Buchberger terms.
staircase_levels is the one walk over the monomials outside a monomial
ideal, degree by degree over unstripped tuples; staircase wraps it for the
candidate monomials (engine.order_ideals) and the leading terms
(standard_monomials).  Two decision paths are kept deliberately separate;
agreement between them is a tested invariant, never an assumption:

- Macaulay: dense linear algebra one degree at a time.  A _MacaulaySlice
  holds the rows of J_d (homogeneous generators only) in one RowSpace and
  answers dimension and independence for degree d.
- Groebner: Buchberger (groebner_basis), then normal forms.  normal_form_span
  ranks the normal forms of monomials modulo a basis computed once.

monomials_independent_in_quotient is the one quotient decision: it runs
the path named by one of METHODS, or both and checks that they agree.
Its dimension counterpart is the oracle pair quotient_dimension (the
staircase) and quotient_dimension_macaulay (slice dimensions); a monomial
set is a basis when it is independent and as large as the dimension.
"""

from __future__ import annotations

import re
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement
from operator import add, le, sub
from typing import NamedTuple

from .errors import BadParams, NotArtinian
from .fields import Field
from .linalg import RowSpace

MACAULAY_DEGREE_CAP = 64
# the decision paths a caller may name: dense per-degree rank, Buchberger, or both
METHODS = ("macaulay", "groebner", "both")


class Monomial:
    """x1^e1 x2^e2 ... xk^ek as its dense exponent tuple exps = (e1, ..., ek),
    trailing zeros stripped, so one monomial has one tuple whatever the
    number of variables around it; its total degree is computed once.

    Stripped tuples compare as their zero-padded forms do.  Equal padded
    forms strip to one tuple.  If neither tuple is a prefix of the other,
    both comparisons stop at the same first difference.  If a is a proper
    prefix of b, Python puts a first, and so do the padded forms: b ends in
    a positive exponent, so their first difference is a positive entry of b
    against a zero of a.  So exps is the lex key and (degree, exps) the
    grlex key, x1 > x2 > ... (order_key).  Different lengths are the trap
    of every pairwise operation: zip stops at the shorter tuple.
    """

    __slots__ = ("exps", "_degree")

    def __init__(self, exps=()):
        exps = tuple(map(int, exps))
        if exps and min(exps) < 0:
            raise BadParams(f"bad monomial exponents {exps}")
        k = len(exps)
        while k and not exps[k - 1]:
            k -= 1
        self.exps = exps[:k]
        self._degree = sum(exps)

    @classmethod
    def one(cls) -> "Monomial":
        return cls()

    @classmethod
    def variable(cls, v: int, power: int = 1) -> "Monomial":
        if v < 1:
            raise BadParams(f"no variable x{v}: variables start at x1")
        return cls((0,) * (v - 1) + (power,))

    def degree(self) -> int:
        return self._degree

    def exponent(self, v: int) -> int:
        return self.exps[v - 1] if 0 < v <= len(self.exps) else 0

    def mul(self, other: "Monomial") -> "Monomial":
        a, b = self.exps, other.exps
        if len(a) < len(b):
            a, b = b, a
        return Monomial(tuple(map(add, a, b)) + a[len(b):])

    def divides(self, other: "Monomial") -> bool:
        a, b = self.exps, other.exps
        return len(a) <= len(b) and all(map(le, a, b))

    def div(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise BadParams(f"{other} does not divide {self}")
        a, b = self.exps, other.exps
        return Monomial(tuple(map(sub, a, b)) + a[len(b):])

    def lcm(self, other: "Monomial") -> "Monomial":
        a, b = self.exps, other.exps
        if len(a) < len(b):
            a, b = b, a
        return Monomial(tuple(map(max, a, b)) + a[len(b):])

    def is_coprime(self, other: "Monomial") -> bool:
        return not any(map(min, self.exps, other.exps))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial({self.show()})"

    def show(self) -> str:
        return " ".join(
            f"x{v}" if a == 1 else f"x{v}^{a}" for v, a in enumerate(self.exps, 1) if a
        ) or "1"

    @classmethod
    def parse(cls, text: str) -> "Monomial":
        text = text.strip()
        if text == "1":
            return cls.one()
        exps: list = []
        for tok in text.split():
            m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", tok)
            if not m or int(m.group(1)) < 1:
                raise BadParams(f"bad monomial token {tok!r}")
            v = int(m.group(1))
            exps += [0] * (v - len(exps))
            exps[v - 1] += int(m.group(2) or 1)
        return cls(exps)


def order_key(order: str, nvars: int):
    """Sort key: larger key = larger monomial.  x1 > x2 > ... throughout.

    The lex key pads exps to nvars: _Index negates keys for the Buchberger
    heap, and negation does not reverse the order of a tuple and its proper
    prefix (x1 < x1 x2, yet (-1,) < (-1, -1)).  The grlex key need not pad:
    a proper prefix has the smaller degree, so equal degrees never compare a
    tuple with its proper prefix.
    """
    zeros = (0,) * nvars
    if order == "lex":
        return lambda m: m.exps + zeros[len(m.exps):]
    if order == "grlex":
        return lambda m: (m._degree, m.exps)
    raise BadParams(f"unknown monomial order {order!r}")


class Polynomial:
    """Immutable polynomial: map Monomial -> nonzero field element."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms):
        z = field.zero()
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict = {}
        for m, c in items:
            if c == z:
                continue
            if m in acc:
                s = field.add(acc[m], c)
                if s == z:
                    del acc[m]
                else:
                    acc[m] = s
            else:
                acc[m] = c
        bad = [m for m in acc if len(m.exps) > nvars]
        if bad:
            raise BadParams(f"monomial {bad[0].show()} uses a variable beyond x{nvars}")
        self.field = field
        self.nvars = nvars
        self.terms = acc

    @classmethod
    def constant(cls, field: Field, nvars: int, c) -> "Polynomial":
        return cls(field, nvars, {Monomial.one(): c})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((m.degree() for m in self.terms), default=0)

    def scale(self, c) -> "Polynomial":
        F = self.field
        return Polynomial(F, self.nvars, {m: F.mul(c, v) for m, v in self.terms.items()})

    def term_mul(self, mono: Monomial) -> "Polynomial":
        return Polynomial(self.field, self.nvars, {m.mul(mono): v for m, v in self.terms.items()})

    def mul(self, other: "Polynomial") -> "Polynomial":
        F = self.field
        return Polynomial(F, self.nvars, [
            (m1.mul(m2), F.mul(c1, c2))
            for m1, c1 in self.terms.items() for m2, c2 in other.terms.items()
        ])

    def leading(self, key) -> tuple:
        m = max(self.terms, key=key)
        return m, self.terms[m]

    def monic(self, key) -> "Polynomial":
        if self.is_zero():
            return self
        _, c = self.leading(key)
        return self.scale(self.field.inv(c))

    def sorted_terms(self, key) -> list:
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({self.show()})"

    # -- text syntax --------------------------------------------------------

    def show(self) -> str:
        """The terms in descending grlex order."""
        if self.is_zero():
            return "0"
        F = self.field
        key = order_key("grlex", self.nvars)
        out = []
        for i, (m, c) in enumerate(self.sorted_terms(key)):
            cs = F.show(c)
            neg = cs.startswith("-")
            mag = cs[1:] if neg else cs
            if m.exps:
                body = m.show() if mag == "1" else f"{mag} {m.show()}"
            else:
                body = mag
            if i == 0:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(out)


class Ideal(NamedTuple):
    field: Field
    nvars: int
    generators: tuple

    @classmethod
    def make(cls, field: Field, nvars: int, gens) -> "Ideal":
        return cls(field, nvars, tuple(g for g in gens if not g.is_zero()))


# -- reduction / Buchberger ---------------------------------------------------


def _descending(k):
    return tuple(map(_descending, k)) if isinstance(k, tuple) else -k


class _Index(dict):
    """Monomial -> (heap key, the first object of its value), filled on
    demand.  The heap key negates key(m), so heapq pops the largest first."""

    def __init__(self, key):
        self.key = key

    def __missing__(self, m):
        entry = self[m] = (_descending(self.key(m)), m)
        return entry


def _leads(polys, key) -> list:
    """(lead monomial, lead coefficient, other terms) of each nonzero term dict."""
    leads = []
    for t in polys:
        if t:
            lm = max(t, key=key)
            leads.append((lm, t[lm], [(m, c) for m, c in t.items() if m != lm]))
    return leads


def _submul(work: dict, heap: list, index: _Index, F: Field, tail, t: Monomial, f) -> None:
    """work -= f * t * tail, in place; a term new to work goes on the heap."""
    z = F.zero()
    for gm, gc in tail:
        entry = index[gm.mul(t)]
        p = entry[1]
        c = F.sub(work.get(p, z), F.mul(f, gc))
        if c == z:
            del work[p]
        else:
            if p not in work:
                heappush(heap, entry)
            work[p] = c


def _reduce(work: dict, leads: list, F: Field, index: _Index) -> dict:
    """Remainder of the polynomial `work` (consumed) on division by the
    polynomials of `leads`, its terms in descending order.

    Division rule: take the largest remaining term c*m.  If the lead of
    some divisor divides m, subtract c/lc(g) * (m/lm(g)) * g in place for
    the first such g in list order, which cancels m; otherwise move c*m to
    the remainder.
    """
    heap = [index[m] for m in work]
    heapify(heap)
    rem = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:  # cancelled after it was pushed
            continue
        for lm, lc, tail in leads:
            if lm.divides(m):
                _submul(work, heap, index, F, tail, m.div(lm), F.div(c, lc))
                break
        else:
            rem[m] = c
    return rem


def normal_form(poly: Polynomial, basis, key) -> Polynomial:
    """Remainder of poly under multivariate division by basis: the largest
    remaining term is divided by the first element of basis, in list order,
    whose lead divides it."""
    leads = _leads([g.terms for g in basis], key)
    return Polynomial(poly.field, poly.nvars, _reduce(dict(poly.terms), leads, poly.field, _Index(key)))


def groebner_basis(ideal: Ideal, order: str = "grlex") -> tuple:
    """Reduced Groebner basis via Buchberger with sugar strategy.

    Pair (i, j) gets its key (sugar, lcm degree, i, j) once, when its later
    element is appended.  Leads and sugar never change after that, so the
    pair heap pops the pending pair of least key, the one that min() over
    the pending pairs picks.  The product criterion skips coprime leads.
    The chain criterion skips (i, j) when another lead lm_k divides
    lcm(lm_i, lm_j) and neither (i, k) nor (j, k) is pending: S(i, j) is
    then a combination of multiples of S(i, k) and S(k, j), which were
    handled already (Cox, Little, O'Shea, Ideals, Varieties, and
    Algorithms, section 2.10).  The result holds one object per distinct
    monomial and per distinct coefficient.
    """
    key = order_key(order, ideal.nvars)
    F, index = ideal.field, _Index(key)
    basis = [g.monic(key).terms for g in ideal.generators if not g.is_zero()]
    leads = _leads(basis, key)
    sugar = [max(m.degree() for m in g) for g in basis]
    heap, pending = [], set()

    def add_pairs(j):
        lj = leads[j][0]
        for i, (li, _, _) in enumerate(leads[:j]):
            d = li.lcm(lj).degree()
            heappush(heap, (max(sugar[i] + d - li.degree(), sugar[j] + d - lj.degree()), d, i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        add_pairs(j)
    while heap:
        s, _, i, j = heappop(heap)
        pending.discard((i, j))
        (fm, fc, ftail), (gm, gc, gtail) = leads[i], leads[j]
        l = fm.lcm(gm)
        if fm.is_coprime(gm) or any(
            k not in (i, j) and lk.divides(l) and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending for k, (lk, _, _) in enumerate(leads)
        ):
            continue
        work: dict = {}  # S(i, j) without its lcm term, which cancels
        _submul(work, [], index, F, ftail, l.div(fm), F.neg(F.inv(fc)))
        _submul(work, [], index, F, gtail, l.div(gm), F.inv(gc))
        r = _reduce(work, leads, F, index)
        if r:
            inv = F.inv(next(iter(r.values())))  # the first term leads
            basis.append({m: F.mul(inv, c) for m, c in r.items()})
            leads += _leads(basis[-1:], key)
            sugar.append(max(s, max(m.degree() for m in r)))
            add_pairs(len(basis) - 1)

    # interreduce to the unique reduced basis (no kept lead divides another)
    keep = [i for i, (lm, _, _) in enumerate(leads) if not any(
        j != i and lj.divides(lm) and (lj != lm or j < i) for j, (lj, _, _) in enumerate(leads))]
    final, share = [], {}
    for i in keep:
        others = [leads[j] for j in keep if j != i]
        r = _reduce(dict(basis[i]), others, F, index) if others else basis[i]
        final.append((key(leads[i][0]), {share.setdefault(m, m): share.setdefault(c, c) for m, c in r.items()}))
    final.sort(key=lambda t: t[0])
    return tuple(Polynomial(F, ideal.nvars, t) for _, t in final)


# -- the staircase ------------------------------------------------------------


def staircase(gens, nvars: int) -> tuple:
    """(minimal generators, members) of the monomial ideal generated by the
    Monomials `gens` in nvars variables: its minimal generators and the
    monomials outside it, each a frozenset of Monomials.  Raises BadParams
    for a generator in a variable past the first nvars, and NotArtinian,
    naming the first variable with no pure power among the generators, when
    infinitely many monomials lie outside.  The members are walked degree by
    degree (staircase_levels): a monomial lies outside exactly when it is
    not a generator and each of its quotients by a variable lies outside.

    The generators are minimised in order of degree: a proper divisor has a
    smaller degree, so it is kept before the monomials it divides.
    """
    mins: list = []
    for g in sorted(set(gens), key=Monomial.degree):
        if len(g.exps) > nvars:
            raise BadParams(f"monomial {g.show()} uses a variable beyond x{nvars}")
        if not any(m.divides(g) for m in mins):
            mins.append(g)
    if mins and not mins[0].exps:  # the unit ideal: nothing lies outside it
        return frozenset(mins), frozenset()
    powers = {len(g.exps) for g in mins if g.exps.count(0) == len(g.exps) - 1}
    for v in range(1, nvars + 1):
        if v not in powers:
            raise NotArtinian(f"no pure power of x{v} among the generators")
    zeros = (0,) * nvars
    levels = staircase_levels([g.exps + zeros[len(g.exps):] for g in mins], nvars)
    return frozenset(mins), frozenset(Monomial(c) for level in levels for c in level)


def staircase_levels(gens, nvars: int):
    """Yield level 0, 1, 2, ... of the monomial ideal generated by `gens`,
    dense exponent tuples of length nvars: level d holds the degree-d tuples
    outside the ideal.  The walk ends at the first empty level, since every
    divisor of a tuple outside lies outside; it never ends when the ideal is
    not Artinian, so a caller either checks that or stops early.

    A degree-d tuple c lies in level d exactly when c is not a generator and
    every c/xj (xj dividing c) lies in level d-1.  If c is outside, so are
    its divisors.  If c is inside but is not a generator, some generator g
    properly divides c, and then g divides c/xj for any xj dividing c/g.
    So no generator needs minimising.  c is built once, from c/xj with xj
    its last variable: each tuple extends only at or after its own last
    variable, which each level stores beside it.
    """
    gens = set(gens)
    zero = (0,) * nvars
    level = {} if zero in gens else {zero: 0}
    while level:
        yield level.keys()
        below, level = level, {}
        for m, last in below.items():
            for j in range(last, nvars):
                c = m[:j] + (m[j] + 1,) + m[j + 1:]
                if c in gens:
                    continue
                for i in range(j):
                    if c[i] and c[:i] + (c[i] - 1,) + c[i + 1:] not in below:
                        break
                else:
                    level[c] = j


def standard_monomials(gb, nvars: int, order: str = "grlex") -> tuple:
    """Monomials outside the leading-term ideal, ascending in the order.

    Raises NotArtinian when some variable has no pure power among the
    leading monomials (infinitely many standard monomials).
    """
    key = order_key(order, nvars)
    _, members = staircase([g.leading(key)[0] for g in gb], nvars)
    return tuple(sorted(members, key=key))


# -- quotient dimension -------------------------------------------------------


def quotient_dimension(ideal: Ideal) -> tuple:
    """(total dimension, by-degree tuple) via the grlex Groebner staircase."""
    std = standard_monomials(groebner_basis(ideal), ideal.nvars)
    by_deg = [0] * (max((m.degree() for m in std), default=-1) + 1)
    for m in std:
        by_deg[m.degree()] += 1
    return (len(std), tuple(by_deg))


def monomials_of_degree(nvars: int, d: int) -> tuple:
    """All degree-d monomials, descending in grlex order (column order).

    combinations_with_replacement yields the sorted picks in ascending lex
    order.  At the first position where two pick lists differ, the smaller
    one picks a variable that the larger one uses less often, and both use
    every earlier variable equally, so its exponent tuple is the larger."""
    return tuple(
        Monomial(map(picks.count, range(nvars)))
        for picks in combinations_with_replacement(range(nvars), d)
    )


class _MacaulaySlice:
    """Degree d of k[x]/J by dense linear algebra: the rows of J_d, built once.

    The columns are the degree-d monomials (descending grlex) and the rows
    of J_d sit in one RowSpace, so dim is the quotient dimension in degree
    d.  add() puts the unit row of a degree-d monomial into the same space
    and says whether the rank grew: after the monomials of S_d are added
    in order, the first that does not grow it is S_d's first dependent
    monomial.
    """

    __slots__ = ("index", "space", "dim")

    def __init__(self, ideal: Ideal, d: int):
        F = ideal.field
        cols = monomials_of_degree(ideal.nvars, d)
        self.index = {m: i for i, m in enumerate(cols)}
        self.space = RowSpace(F, len(cols))
        for g in ideal.generators:
            degrees = {m.degree() for m in g.terms}  # one pass: homogeneous, and its degree
            if len(degrees) > 1:
                raise BadParams("macaulay path requires homogeneous generators")
            e = min(degrees, default=0)
            if e > d:
                continue
            # distinct terms times one shift stay distinct: no two collide
            for shift in monomials_of_degree(ideal.nvars, d - e):
                row = [0] * len(cols)  # RowSpace reads int 0 and 1 in every field
                for m, c in g.terms.items():
                    row[self.index[m.mul(shift)]] = c
                self.space.add(row)
        self.dim = len(cols) - self.space.rank

    def add(self, m: Monomial) -> bool:
        row = [0] * self.space.ncols
        row[self.index[m]] = 1
        return self.space.add(row)


def _first_dependent(ideal: Ideal, mons) -> Monomial | None:
    """First monomial, in grlex order, in the span of J and the ones before it.

    A homogeneous ideal grades the quotient, so only monomials of one
    degree can depend on each other and each degree is settled in its own
    slice, built when the first monomial of that degree comes.
    """
    slices: dict = {}
    for m in sorted(mons, key=order_key("grlex", ideal.nvars)):
        d = m.degree()
        if d not in slices:
            slices[d] = _MacaulaySlice(ideal, d)
        if not slices[d].add(m):
            return m
    return None


def quotient_dimension_macaulay(ideal: Ideal) -> tuple:
    """(total, by-degree) by dense rank per degree; no Groebner machinery.

    Requires homogeneous generators, for which the quotient vanishes in
    every degree above the first degree where it vanishes.  If it has not
    vanished by the sum of the generator degrees (a complete-intersection-
    style regularity bound), or by MACAULAY_DEGREE_CAP if that is smaller,
    the quotient is declared non-Artinian.
    """
    cap = min(sum(g.total_degree() for g in ideal.generators) or 1, MACAULAY_DEGREE_CAP)
    by_deg: list = []
    while True:
        dim = _MacaulaySlice(ideal, len(by_deg)).dim
        if dim == 0:
            return (sum(by_deg), tuple(by_deg))
        by_deg.append(dim)
        if len(by_deg) > cap:
            raise NotArtinian(f"quotient still growing at degree {cap}")


def monomials_independent_in_quotient(
    ideal: Ideal, mons, method: str = "macaulay", gb=None
) -> tuple:
    """(all independent?, first dependent monomial in grlex order) for the
    images of `mons` in k[x]/ideal.

    method 'macaulay' ranks each degree apart (homogeneous generators
    required) and never computes the quotient dimension, so it stays cheap
    inside search loops; 'groebner' ranks normal forms modulo gb, a grlex
    Groebner basis of the ideal, computed here when None; 'both' runs the
    Groebner path, then the Macaulay path, and returns the Groebner answer
    once the two outcomes agree.  The paths are independent, so a
    disagreement would mean a bug in one of them and raises.
    """
    if method not in METHODS:
        raise BadParams(f"unknown method {method!r}")
    mons = list(mons)
    if method != "macaulay":
        wit = normal_form_span(ideal, groebner_basis(ideal) if gb is None else gb, mons)
    if method != "groebner":
        wit_m = _first_dependent(ideal, mons)
        if method == "macaulay":
            wit = wit_m
        elif (wit is None) != (wit_m is None):
            raise AssertionError(
                f"independent decision paths disagree: {wit is None} vs {wit_m is None}"
            )
    return (wit is None, wit)


def normal_form_span(ideal: Ideal, gb, mons) -> Monomial | None:
    """The first monomial of `mons`, in grlex order, whose normal form modulo
    the Groebner basis gb lies in the span of the earlier ones, or None.

    gb must be a grlex Groebner basis of `ideal`: the callers compute it
    once and pass it in.
    """
    key = order_key("grlex", ideal.nvars)
    F = ideal.field
    z = F.zero()
    index = _Index(key)
    leads = _leads([g.terms for g in gb], key)
    forms = [
        (m, Polynomial(F, ideal.nvars, _reduce({m: F.one()}, leads, F, index)))
        for m in sorted(mons, key=key)
    ]
    cols: dict = {}
    for _, nf in forms:
        for mm in nf.terms:
            cols.setdefault(mm, len(cols))
    space = RowSpace(F, len(cols))
    for m, nf in forms:
        row = [z] * len(cols)
        for mm, c in nf.terms.items():
            row[cols[mm]] = c
        if not space.add(row):
            return m
    return None
