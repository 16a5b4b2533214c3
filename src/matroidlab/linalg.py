"""Exact dense linear algebra over GF(2), GF(p) and Q.

Matrices are immutable.  All elimination runs through RowSpace, whose
rows are reduced in a fixed order, and the RREF of a row space is unique,
so identical inputs produce byte-identical outputs.  Internally GF(2) rows
are packed into Python ints and Q rows are primitive integer lists, reduced
fraction-free; neither leaks into the public contract.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import BadParams, BadRank, BadSize, Overbudget, SingularBasis
from .fields import Field, GF2_FIELD, GFp, Q_FIELD

# the most ground elements (or columns of a standard form) an enumeration takes
ENUMERATION_CAP = 20
# 2^61 - 1, a Mersenne prime: the modulus of the rank tests over Q in the
# column backend and in is_unimodular_standard_form
RESIDUE_PRIME = (1 << 61) - 1
RESIDUE_FIELD = GFp(RESIDUE_PRIME)


class Matrix:
    """Immutable matrix over an exact field.

    entries is a tuple of row tuples.  col_labels are optional metadata
    and never affect arithmetic or equality.
    """

    __slots__ = ("field", "nrows", "ncols", "entries", "col_labels")

    def __init__(self, field: Field, entries, col_labels=None):
        rows = tuple(tuple(r) for r in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise BadSize("ragged rows")
        self.field = field
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self.entries = rows
        self.col_labels = tuple(col_labels) if col_labels is not None else None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int_rows(cls, field: Field, rows, col_labels=None) -> "Matrix":
        conv = field.from_int
        return cls(field, [[conv(x) for x in r] for r in rows], col_labels)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)])

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        same = isinstance(other, Matrix) and self.field == other.field
        return same and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.nrows}x{self.ncols})"

    def column(self, j: int):
        return tuple(r[j] for r in self.entries)

    def map_to_field(self, field: Field) -> "Matrix":
        """Reinterpret integral entries in another field (e.g. TU matrix mod 2)."""
        return Matrix.from_int_rows(field, _integer_entries(self), self.col_labels)

    # -- elimination -------------------------------------------------------

    def rank(self) -> int:
        return _span(self.field, self.entries, self.ncols).rank

    def standard_form(self, basis_cols) -> "Matrix":
        """Row-reduce so the given columns carry an identity block.

        This is the RREF of the matrix with the basis columns (0-based,
        ascending) moved first, put back in column order, so it is unique:
        row k has its 1 in the k-th smallest basis column.  Raises
        SingularBasis if the columns are dependent, BadRank if they do not
        span the row space (leftover nonzero rows).
        """
        cols = sorted(set(basis_cols))
        if len(cols) != len(tuple(basis_cols)):
            raise BadParams("duplicate basis columns")
        if any(c < 0 or c >= self.ncols for c in cols):
            raise BadParams("basis column out of range")
        k = len(cols)
        order = cols + sorted(set(range(self.ncols)) - set(cols))
        permuted = [[r[j] for j in order] for r in self.entries]
        rows, pivots = _span(self.field, permuted, self.ncols).rref()
        if pivots[:k] != list(range(k)):
            t = next(t for t in range(k) if t >= len(pivots) or pivots[t] != t)
            raise SingularBasis(f"basis columns dependent at column {cols[t]}")
        if len(pivots) > k:
            raise BadRank("basis columns do not span the row space")
        back = sorted(range(self.ncols), key=order.__getitem__)
        return Matrix(self.field, [[r[t] for t in back] for r in rows], col_labels=self.col_labels)

    # -- total unimodularity ----------------------------------------------

    def is_totally_unimodular(self) -> bool:
        """True when every square submatrix has determinant -1, 0 or +1.

        Entries must already be in {-1, 0, 1}.  Decided by the regularity
        certificate is_unimodular_standard_form on [I | self], which is
        totally unimodular exactly when self is; it enumerates column
        subsets, so [I | self] with more than ENUMERATION_CAP columns raises
        Overbudget.
        """
        ints = _integer_entries(self)
        if any(x not in (-1, 0, 1) for r in ints for x in r):
            raise BadParams("entries must be in {-1, 0, 1}")
        m = self.nrows
        ext = [[int(i == k) for k in range(m)] + r for i, r in enumerate(ints)]
        return is_unimodular_standard_form(Matrix.from_int_rows(Q_FIELD, ext), range(m))


def _integer_entries(m: Matrix):
    fracs = [[Fraction(x) for x in r] for r in m.entries]
    if any(f.denominator != 1 for r in fracs for f in r):
        raise BadParams("entries must be integral")
    return [[int(f) for f in r] for r in fracs]


def _span(F: Field, rows, ncols) -> "RowSpace":
    space = RowSpace(F, ncols)
    for r in rows:
        space.add(r)
    return space


def _clear(p: int, vec, c: int, b) -> list:
    """vec with its entry at column c cleared by the stored row b.

    Over GF(p) b has 1 at c, and the result is vec - vec[c] b mod p.  Over Q
    both are integer rows and the result is the primitive integer row of
    (b[c]/g) vec - (vec[c]/g) b, g = gcd(vec[c], b[c]): a nonzero rational
    multiple of vec - (vec[c]/b[c]) b, so it spans the same line."""
    f = vec[c]
    if p:
        return [(x - f * y) % p if y else x for x, y in zip(vec, b)]
    g = gcd(f, b[c])
    s, t = b[c] // g, f // g
    vec = [s * x - t * y for x, y in zip(vec, b)]
    g = gcd(*vec)
    return [x // g for x in vec] if g > 1 else vec


class RowSpace:
    """Incrementally built row span with rank tracking: the one elimination
    kernel behind every rank, independence and RREF question.

    add() reduces the new row against the rows collected so far, so a
    sequence of adds costs one elimination pass per row instead of a fresh
    Gaussian elimination per rank query.  Each stored row has its leading
    nonzero at its own pivot column.  Over GF(2) rows are packed into
    Python ints (bit j is column j), and a new row is reduced at its lowest
    set bit until that bit is no pivot.  Over GF(p) rows are lists of
    residues with pivot entry 1.  Over Q they are primitive integer lists
    (gcd of the entries 1, pivot entry positive), elimination is
    fraction-free, and Fractions appear only in the output of rref().  A
    new row, its denominators cleared, is reduced at every pivot in the
    order the rows were stored: each stored row is zero at the pivots
    stored before it, so a later step never undoes an earlier one.

    Over Q the entries cannot blow up.  After the steps at pivots
    c_1 ... c_j the row lies in span(new, b_1 ... b_j) and is zero at
    c_1 ... c_j; the stored rows restricted to those columns are
    triangular with nonzero diagonal, so the vectors of that span that
    vanish there form at most one line.  The row is that line's primitive
    integer vector.  By Cramer's rule the line is also spanned by the
    (j+1)-minors, on c_1 ... c_j and one more column, of the new row and
    the j cleared input rows that span the b's, so each entry is at most
    such a minor, within Hadamard's bound (Bareiss 1968; von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 5).
    """

    __slots__ = ("field", "ncols", "_p", "_rows")

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self._p = field.char
        self._rows: dict = {}  # pivot column -> row, in the order added

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row) -> bool:
        """Absorb one row (sequence of field elements); True if the rank grew."""
        rows, p = self._rows, self._p
        if p == 2:
            acc = 0
            for j, x in enumerate(row):
                if x:
                    acc |= 1 << j
            while acc:
                c = (acc & -acc).bit_length() - 1
                b = rows.get(c)
                if b is None:
                    rows[c] = acc
                    return True
                acc ^= b
            return False
        if p:
            vec = row
        else:  # int and Fraction both expose numerator and denominator
            den = lcm(*(x.denominator for x in row))
            vec = [x.numerator * (den // x.denominator) for x in row]
        for c, b in rows.items():
            if vec[c]:
                vec = _clear(p, vec, c, b)
        c = next((j for j, x in enumerate(vec) if x), None)
        if c is None:
            return False
        if p:
            f = self.field.inv(vec[c])
        else:
            g = gcd(*vec)
            f = -g if vec[c] < 0 else g
        if f != 1:
            vec = [x * f % p for x in vec] if p else [x // f for x in vec]
        rows[c] = list(vec)
        return True

    def rref(self) -> tuple:
        """(rows, pivot columns) of the reduced row echelon form of the span,
        pivots ascending, rows as lists of field elements.

        Back-substitution from the last pivot up: the rows below a row are
        already reduced, each is zero at every pivot but its own, so
        clearing the row's entries at their pivots leaves its other pivot
        columns as they are.  Over Q each row is then divided by its pivot
        entry; the RREF of a span is unique, so it does not matter that the
        rows were scaled on the way."""
        p, n = self._p, self.ncols
        rows = {c: [(b >> j) & 1 for j in range(n)] if p == 2 else b for c, b in self._rows.items()}
        pivots = sorted(rows)
        for k in range(len(pivots) - 2, -1, -1):
            vec = rows[pivots[k]]
            for c in pivots[k + 1:]:
                if vec[c]:
                    vec = _clear(p, vec, c, rows[c])
            rows[pivots[k]] = vec
        if not p:
            rows = {c: [Fraction(x, b[c]) for x in b] for c, b in rows.items()}
        return [rows[c] for c in pivots], pivots


# -- Camion's signing ----------------------------------------------------------


def tu_signing(m: Matrix) -> Matrix:
    """Camion's signing of a 0/1 matrix, as a rational matrix.

    In the bipartite graph of the support (rows and columns as nodes, one
    edge per nonzero) the edges of a spanning forest get +1.  Then, over
    and over, the unsigned edge whose endpoints are closest in the signed
    subgraph is signed: a shortest path there closes a cycle with it that
    is chordless in the whole graph (a chord would be a signed edge that
    shortens the path, or an unsigned edge closer than this one), and the
    sign makes that cycle's entries sum to 0 mod 4.  A 0/1 matrix has at
    most one totally unimodular signing up to +-1 scaling of rows and
    columns, and when it has one, this is it (P. Camion, Proc. AMS 16,
    1965).  The signing is not checked: a support with no TU signing (the
    Fano plane's) gets one that is not TU.

    The forest fixes the scaling.  It is grown column by column, first the
    column's top entry, then its other entries from the bottom row up,
    each kept when it joins two trees.  So the first nonzero of every
    column is +1 and every later entry is +1 when the earlier ones allow
    it: of all TU signings normalised that way, this is the least, with
    entries compared column by column from the bottom row up and +1 before
    -1.
    """
    ints = _integer_entries(m)
    if any(x not in (0, 1) for r in ints for x in r):
        raise BadParams("tu_signing expects a 0/1 matrix")
    nrows, ncols = m.nrows, m.ncols
    adj: list = [[] for _ in range(nrows + ncols)]  # row i is node i, column j node nrows + j
    signs: dict = {}

    def link(i, j, s):
        signs[i, j] = s
        adj[i].append(nrows + j)
        adj[nrows + j].append(i)

    forest, rest = _ParityForest(nrows + ncols), []
    for j in range(ncols):
        col = [i for i in range(nrows) if ints[i][j]]
        for i in col[:1] + col[:0:-1]:
            if forest.join(i, nrows + j):
                link(i, j, 1)
            else:
                rest.append((i, j))
    while rest:
        best = None
        for i in sorted({i for i, _ in rest}):
            tree = _bfs(adj, i)
            for e in rest:
                if e[0] == i and (best is None or tree[nrows + e[1]][0] < best[0]):
                    best = (tree[nrows + e[1]][0], e, tree)
        length, (i, j), tree = best
        negative, node = 0, nrows + j
        while node != i:
            prev = tree[node][1]
            negative += signs[(prev, node - nrows) if prev < nrows else (node, prev - nrows)] < 0
            node = prev
        # 2k entries +-1 sum to 0 mod 4 iff the number of -1s has the parity of k
        link(i, j, -1 if negative % 2 != (length + 1) // 2 % 2 else 1)
        rest.remove((i, j))
    rows = [[signs.get((i, j), 0) for j in range(ncols)] for i in range(nrows)]
    return Matrix.from_int_rows(Q_FIELD, rows, col_labels=m.col_labels)


def _bfs(adj, start) -> dict:
    """{node: (distance, previous node)} over the nodes reachable from start."""
    tree = {start: (0, None)}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in tree:
                    tree[v] = (tree[u][0] + 1, u)
                    nxt.append(v)
        frontier = nxt
    return tree


class _ParityForest:
    """Union-find whose nodes carry a parity relative to their tree's root."""

    def __init__(self, n: int):
        self.parent, self.parity = list(range(n)), [0] * n

    def find(self, x) -> tuple:
        p = 0
        while self.parent[x] != x:
            p ^= self.parity[x]
            x = self.parent[x]
        return x, p

    def join(self, a, b, odd: int = 0) -> bool:
        """Join the trees of a and b with parity(a) ^ parity(b) == odd;
        False, changing nothing, when they share a tree."""
        (ra, pa), (rb, pb) = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra], self.parity[ra] = rb, pa ^ pb ^ odd
        return True


def is_sign_rescaling(a: Matrix, b: Matrix) -> bool:
    """True when a = D b E for diagonal matrices D, E with entries +-1."""
    if a.nrows != b.nrows or a.ncols != b.ncols:
        return False
    n = a.nrows
    forest = _ParityForest(n + a.ncols)
    for i, (ra, rb) in enumerate(zip(a.entries, b.entries)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if not x and not y:
                continue
            if x not in (1, -1) or y not in (1, -1):
                return False
            odd = x != y
            if not forest.join(i, n + j, odd) and forest.find(i)[1] ^ forest.find(n + j)[1] != odd:
                return False
    return True


# -- the regularity certificate ------------------------------------------------


def is_unimodular_standard_form(sf: Matrix, basis, ref: Matrix | None = None) -> bool:
    """True when sf = [I | T] over Q, in standard form on the columns
    `basis`, is totally unimodular and, if ref (a standard form on the same
    basis, over any field) is given, has ref's column matroid.

    The test: entries in {0, +-1}, and sf over Q, sf mod 2 and ref have the
    same bases.  A standard form's maximal minor on the columns
    (basis - R) + C is +-det of its submatrix on rows R and columns C.  A
    square {0, +-1} matrix that is not TU while its proper submatrices are
    has determinant +-2 (Camion 1965), so if T is not TU, some such minor
    is nonzero over Q and zero mod 2; if T is TU, each is 0 or +-1, nonzero
    iff odd.  Mod RESIDUE_PRIME the test over Q is exact: a k x k
    {0, +-1} matrix has |det| <= k^(k/2) < RESIDUE_PRIME for k <= 20.
    """
    if sf.ncols > ENUMERATION_CAP:
        raise Overbudget(f"{sf.ncols} columns exceed cap {ENUMERATION_CAP}")
    if any(x not in (-1, 0, 1) for r in sf.entries for x in r):
        return False
    basis = sorted(basis)
    rest = sorted(set(range(sf.ncols)) - set(basis))
    T = [[int(row[j]) % RESIDUE_PRIME for j in rest] for row in sf.entries]
    if ref is not None and ref.field.char == 2:
        # a binary standard form is the fundamental-cocircuit incidence of
        # its matroid on the basis, so equal matroids mean equal matrices
        if [[x % 2 for x in r] for r in sf.entries] != [list(r) for r in ref.entries]:
            return False
        ref = None
    A = ref and [[row[j] for j in rest] for row in ref.entries]
    for k in range(min(len(basis), len(rest)) + 1):
        for R in combinations(range(len(basis)), k):
            for C in combinations(range(len(rest)), k):
                cols = [[T[i][c] for i in R] for c in C]
                # an odd determinant is nonzero: only an even one can differ over Q
                mod2, modp = RowSpace(GF2_FIELD, k), RowSpace(RESIDUE_FIELD, k)
                odd = all(mod2.add(col) for col in cols)
                if not odd and all(modp.add(col) for col in cols):
                    return False
                if A and (Matrix(ref.field, [[A[i][c] for c in C] for i in R]).rank() == k) != odd:
                    return False
    return True
