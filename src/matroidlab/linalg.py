"""Exact dense linear algebra over GF(2), GF(p) and Q.

Matrices are immutable.  Elimination order is deterministic everywhere
(pivot columns ascending, first nonzero row from the top), so identical
inputs produce byte-identical outputs.  GF(2) rows are packed into Python
ints internally; the packing never leaks into the public contract.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import BadParams, BadRank, BadSize, Overbudget, SingularBasis
from .fields import Field, GF2_FIELD, Q_FIELD, field_from_name

TU_SUBMATRIX_BUDGET = 2_000_000


class Matrix:
    """Immutable matrix over an exact field.

    entries is a tuple of row tuples.  col_labels/row_labels are optional
    display metadata and never affect arithmetic or equality.
    """

    __slots__ = ("field", "nrows", "ncols", "entries", "col_labels", "row_labels")

    def __init__(self, field: Field, entries, col_labels=None, row_labels=None):
        rows = tuple(tuple(r) for r in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise BadSize("ragged rows")
        self.field = field
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self.entries = rows
        self.col_labels = tuple(col_labels) if col_labels is not None else None
        self.row_labels = tuple(row_labels) if row_labels is not None else None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int_rows(cls, field: Field, rows, col_labels=None, row_labels=None) -> "Matrix":
        conv = field.from_int
        return cls(field, [[conv(x) for x in r] for r in rows], col_labels, row_labels)

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
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.nrows}x{self.ncols})"

    def row(self, i: int):
        return self.entries[i]

    def column(self, j: int):
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.entries)) if self.entries else [])

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        rows = [[self.entries[i][j] for j in col_idx] for i in row_idx]
        return Matrix(self.field, rows)

    def select_columns(self, col_idx) -> "Matrix":
        labels = None
        if self.col_labels is not None:
            labels = [self.col_labels[j] for j in col_idx]
        return Matrix(
            self.field,
            [[r[j] for j in col_idx] for r in self.entries],
            col_labels=labels,
        )

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows or self.field != other.field:
            raise BadSize("matmul shape/field mismatch")
        F = self.field
        cols = list(zip(*other.entries)) if other.entries else []
        out = []
        for r in self.entries:
            out.append(
                [
                    _dot(F, r, c)
                    for c in cols
                ]
            )
        return Matrix(self.field, out) if cols else Matrix.zero(F, self.nrows, other.ncols)

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for r in self.entries for x in r)

    def map_to_field(self, field: Field) -> "Matrix":
        """Reinterpret integral entries in another field (e.g. TU matrix mod 2)."""
        rows = []
        for r in self.entries:
            new = []
            for x in r:
                f = Fraction(x)
                if f.denominator != 1:
                    raise BadParams("entries must be integral to change field")
                new.append(field.from_int(int(f)))
            rows.append(new)
        return Matrix(field, rows, self.col_labels, self.row_labels)

    # -- elimination -------------------------------------------------------

    def rank(self) -> int:
        if self.nrows == 0 or self.ncols == 0:
            return 0
        if self.field.char == 2:
            bits = _pack_gf2(self.entries)
            return len(_gf2_eliminate(bits))
        work = [list(r) for r in self.entries]
        return len(_eliminate(self.field, work, range(self.ncols)))

    def rref(self) -> "Matrix":
        """Reduced row echelon form, pivots left to right, zero rows dropped."""
        if self.nrows == 0:
            return self
        if self.field.char == 2:
            bits = _pack_gf2(self.entries)
            piv = _gf2_eliminate(bits)
            rows = [bits[i] for _, i in sorted(piv.items())]
            return Matrix(self.field, _unpack_gf2(rows, self.ncols))
        work = [list(r) for r in self.entries]
        piv = _eliminate(self.field, work, range(self.ncols))
        return Matrix(self.field, [work[i] for _, i in sorted(piv.items())])

    def standard_form(self, basis_cols) -> "Matrix":
        """Row-reduce so the given columns carry an identity block.

        basis_cols are 0-based and processed ascending; within a column the
        pivot is the first usable nonzero row from the top.  Output rows are
        ordered so row k has its 1 in the k-th smallest basis column.
        Raises SingularBasis if the columns are dependent, BadRank if they
        do not span the row space (leftover nonzero rows).
        """
        cols = sorted(set(basis_cols))
        if len(cols) != len(tuple(basis_cols)):
            raise BadParams("duplicate basis columns")
        if any(c < 0 or c >= self.ncols for c in cols):
            raise BadParams("basis column out of range")
        if self.field.char == 2:
            return self._standard_form_gf2(cols)
        F = self.field
        z = F.zero()
        work = [list(r) for r in self.entries]
        used = set()
        pivot_row = {}
        for c in cols:
            pr = next((i for i in range(self.nrows) if i not in used and work[i][c] != z), None)
            if pr is None:
                raise SingularBasis(f"basis columns dependent at column {c}")
            inv = F.inv(work[pr][c])
            if inv != F.one():
                work[pr] = [F.mul(inv, x) for x in work[pr]]
            for i in range(self.nrows):
                if i != pr and work[i][c] != z:
                    f = work[i][c]
                    work[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(work[i], work[pr])]
            used.add(pr)
            pivot_row[c] = pr
        for i in range(self.nrows):
            if i not in used and any(x != z for x in work[i]):
                raise BadRank("basis columns do not span the row space")
        return Matrix(F, [work[pivot_row[c]] for c in cols], col_labels=self.col_labels)

    def _standard_form_gf2(self, cols) -> "Matrix":
        bits = _pack_gf2(self.entries)
        used = set()
        pivot_row = {}
        for c in cols:
            mask = 1 << c
            pr = next((i for i in range(len(bits)) if i not in used and bits[i] & mask), None)
            if pr is None:
                raise SingularBasis(f"basis columns dependent at column {c}")
            for i in range(len(bits)):
                if i != pr and bits[i] & mask:
                    bits[i] ^= bits[pr]
            used.add(pr)
            pivot_row[c] = pr
        if any(bits[i] for i in range(len(bits)) if i not in used):
            raise BadRank("basis columns do not span the row space")
        rows = [bits[pivot_row[c]] for c in cols]
        return Matrix(self.field, _unpack_gf2(rows, self.ncols), col_labels=self.col_labels)

    def null_space_basis(self) -> "Matrix":
        """One row per free column of the RREF; entry at the free column is 1."""
        F = self.field
        R = self.rref()
        pivots = []
        seen = set()
        z = F.zero()
        for r in R.entries:
            for j in range(self.ncols):
                if r[j] != z:
                    pivots.append(j)
                    seen.add(j)
                    break
        free = [j for j in range(self.ncols) if j not in seen]
        rows = []
        for f in free:
            v = [z] * self.ncols
            v[f] = F.one()
            for i, p in enumerate(pivots):
                v[p] = F.neg(R.entries[i][f])
            rows.append(v)
        return Matrix(F, rows) if rows else Matrix.zero(F, 0, self.ncols)

    # -- total unimodularity ----------------------------------------------

    def is_totally_unimodular(self, max_order: int | None = None,
                              budget: int = TU_SUBMATRIX_BUDGET) -> bool:
        """Brute-force check that every minor up to max_order is -1, 0 or +1.

        Entries must already be in {-1, 0, 1}.  Raises Overbudget when the
        number of square submatrices to inspect exceeds the budget.
        """
        ints = _integer_entries(self)
        if any(x not in (-1, 0, 1) for r in ints for x in r):
            raise BadParams("entries must be in {-1, 0, 1}")
        m, n = self.nrows, self.ncols
        if max_order is None:
            max_order = min(m, n)
        max_order = min(max_order, m, n)
        total = sum(_comb(m, k) * _comb(n, k) for k in range(2, max_order + 1))
        if total > budget:
            raise Overbudget(f"{total} submatrices exceeds budget {budget}")
        for k in range(2, max_order + 1):
            for rset in combinations(range(m), k):
                rrows = [ints[i] for i in rset]
                for cset in combinations(range(n), k):
                    if _int_det([[row[j] for j in cset] for row in rrows]) not in (-1, 0, 1):
                        return False
        return True

    # -- text format -------------------------------------------------------

    def to_text(self) -> str:
        F = self.field
        lines = [f"{self.nrows} {self.ncols} {F.name}"]
        for r in self.entries:
            lines.append(" ".join(F.show(x) for x in r))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Matrix":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise BadParams("empty matrix text")
        head = lines[0].split()
        if len(head) != 3:
            raise BadParams("header must be 'rows cols field'")
        nrows, ncols = int(head[0]), int(head[1])
        F = field_from_name(head[2])
        if len(lines) != nrows + 1:
            raise BadParams(f"expected {nrows} rows, got {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != ncols:
                raise BadParams(f"expected {ncols} entries per row")
            rows.append([F.parse(t) for t in toks])
        return cls(F, rows)


def _dot(F: Field, a, b):
    acc = F.zero()
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


def _comb(n: int, k: int) -> int:
    from math import comb

    return comb(n, k)


def _integer_entries(m: Matrix):
    out = []
    for r in m.entries:
        row = []
        for x in r:
            f = Fraction(x)
            if f.denominator != 1:
                raise BadParams("entries must be integral")
            row.append(int(f))
        out.append(row)
    return out


def _int_det(mat) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _eliminate(F: Field, work, col_order) -> dict:
    """In-place Gauss-Jordan over an arbitrary field; returns {pivot_col: row}."""
    z = F.zero()
    one = F.one()
    pivots = {}
    used = set()
    nrows = len(work)
    for c in col_order:
        pr = next((i for i in range(nrows) if i not in used and work[i][c] != z), None)
        if pr is None:
            continue
        inv = F.inv(work[pr][c])
        if inv != one:
            work[pr] = [F.mul(inv, x) for x in work[pr]]
        for i in range(nrows):
            if i != pr and work[i][c] != z:
                f = work[i][c]
                work[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(work[i], work[pr])]
        used.add(pr)
        pivots[c] = pr
    return pivots


# -- GF(2) bit-packed kernels ----------------------------------------------


def _pack_gf2(entries):
    bits = []
    for r in entries:
        acc = 0
        for j, x in enumerate(r):
            if x:
                acc |= 1 << j
        bits.append(acc)
    return bits


def _unpack_gf2(bits, ncols):
    return [[(b >> j) & 1 for j in range(ncols)] for b in bits]


def _gf2_eliminate(bits) -> dict:
    """In-place RREF on packed rows; returns {pivot_col: row_index}."""
    pivots = {}
    for i in range(len(bits)):
        row = bits[i]
        for c, r in pivots.items():
            if row & (1 << c):
                row ^= bits[r]
        if row == 0:
            bits[i] = 0
            continue
        c = (row & -row).bit_length() - 1
        bits[i] = row
        for r2 in pivots.values():
            if bits[r2] & (1 << c):
                bits[r2] ^= row
        pivots[c] = i
    return pivots


class RowSpace:
    """Incrementally built row span with rank tracking.

    add() reduces the new row against the pivot rows collected so far, so a
    sequence of adds costs one elimination pass per row instead of a fresh
    Gaussian elimination per rank query.  Stored rows keep their leading
    nonzero as the pivot; pivot columns are unique.
    """

    __slots__ = ("field", "ncols", "_gf2", "_rows", "_pivots")

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self._gf2 = field.char == 2
        self._rows: list = []
        self._pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row) -> bool:
        """Absorb one row (sequence of field elements); True if the rank grew."""
        if self._gf2:
            acc = 0
            for j, x in enumerate(row):
                if x:
                    acc |= 1 << j
            while acc:
                c = (acc & -acc).bit_length() - 1
                idx = self._pivots.get(c)
                if idx is None:
                    self._pivots[c] = len(self._rows)
                    self._rows.append(acc)
                    return True
                acc ^= self._rows[idx]
            return False
        F = self.field
        z = F.zero()
        vec = list(row)
        j = 0
        while j < self.ncols:
            if vec[j] == z:
                j += 1
                continue
            idx = self._pivots.get(j)
            if idx is None:
                inv = F.inv(vec[j])
                if inv != F.one():
                    vec = [F.mul(inv, x) for x in vec]
                self._pivots[j] = len(self._rows)
                self._rows.append(vec)
                return True
            f = vec[j]
            vec = [F.sub(a, F.mul(f, b)) for a, b in zip(vec, self._rows[idx])]
        return False


# -- regular signing search --------------------------------------------------


def tu_signing(m: Matrix, budget: int = TU_SUBMATRIX_BUDGET) -> Matrix:
    """Find a totally unimodular resigning of a 0/1 support matrix.

    Works column by column: the first nonzero of each column is fixed to +1
    (column scaling), the rest are decided by depth-first search pruned by
    checking every new square submatrix through the fresh column.  Returns a
    rational matrix with the same support, or raises BadParams when no TU
    signing exists (the support is not that of a regular matroid).
    """
    ints = _integer_entries(m)
    if any(x not in (0, 1) for r in ints for x in r):
        raise BadParams("tu_signing expects a 0/1 matrix")
    nrows, ncols = m.nrows, m.ncols
    supports = [[i for i in range(nrows) if ints[i][j]] for j in range(ncols)]
    cols: list[list[int]] = []

    # square submatrices through column j, smallest order first
    def new_col_ok(colvec) -> bool:
        j = len(cols)
        for k in range(2, min(nrows, j + 1) + 1):
            for rset in combinations(range(nrows), k):
                if all(colvec[i] == 0 for i in rset):
                    continue
                last = [colvec[i] for i in rset]
                for cset in combinations(range(j), k - 1):
                    sub = [[cols[c][i] for c in cset] + [last[t]] for t, i in enumerate(rset)]
                    if _int_det(sub) not in (-1, 0, 1):
                        return False
        return True

    def assign(j: int) -> bool:
        if j == ncols:
            return True
        sup = supports[j]
        free = sup[1:]
        for pattern in range(1 << len(free)):
            colvec = [0] * nrows
            if sup:
                colvec[sup[0]] = 1
            for t, i in enumerate(free):
                colvec[i] = -1 if (pattern >> t) & 1 else 1
            if new_col_ok(colvec):
                cols.append(colvec)
                if assign(j + 1):
                    return True
                cols.pop()
        return False

    if not assign(0):
        raise BadParams("support admits no totally unimodular signing")
    rows = [[Fraction(cols[j][i]) for j in range(ncols)] for i in range(nrows)]
    return Matrix(Q_FIELD, rows, col_labels=m.col_labels)


def gf2_matrix(rows, col_labels=None) -> Matrix:
    """Convenience constructor from 0/1 integer rows."""
    return Matrix.from_int_rows(GF2_FIELD, rows, col_labels=col_labels)
