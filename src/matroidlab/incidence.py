"""Signed circuit and cocircuit incidence matrices.

Rows are indexed by circuits or cocircuits, columns by ground set elements
in a chosen ordering.  Over characteristic 2 the matrices are plain 0/1
incidence indicators and need no representation; over other fields the
entries come from a representation and must land in {-1, 0, +1}, else the
construction raises NotRegular.

fundamental_rows is the one builder of the fundamental cocircuit rows of a
basis, which the engine's linear system and fundamental_matrices share.
Over GF(2) it reads them off the independence oracle.  That is sound
because a GF(2) row is its support and the standard form of any binary
representation on B has row b supported exactly on the fundamental
cocircuit C*(B, b).  A matroid with no binary representation gets the same
oracle rows; they are what a representation-free reading always gave it.

Sign conventions are fixed so identical inputs give identical matrices:
the cocircuit rows attached to a basis are the rows of the standard form
of the representation (identity block on the basis columns), and every
standalone elementary vector is scaled so its first nonzero entry, in
column order, equals +1.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadParams, NotRegular, NotStandardOrdering
from .fields import Field
from .linalg import Matrix
from .matroids import Matroid


class FundamentalMatrices(NamedTuple):
    """Incidence rows for the fundamental (co)circuits of one basis.

    ordering: all ground labels; the last `rank` of them form the basis.
    circuit_matrix: one row per cobasis element e (in ordering order), the
        signed fundamental circuit of e; shaped [I | -A1^T].
    cocircuit_matrix: one row per basis element b (in ordering order), the
        signed fundamental cocircuit of b; shaped [A1 | I].
    """

    ordering: tuple
    basis: tuple
    cobasis: tuple
    circuit_matrix: Matrix
    cocircuit_matrix: Matrix


def _split_ordering(matroid: Matroid, ordering) -> tuple:
    labels = tuple(ordering)
    if sorted(labels) != sorted(matroid.ground):
        raise BadParams("ordering is not a permutation of the ground set")
    r = matroid.rank()
    cobasis, basis = labels[: len(labels) - r], labels[len(labels) - r:]
    if not matroid.is_independent(frozenset(basis)) or len(basis) != r:
        raise NotStandardOrdering(f"last {r} elements {basis} are not a basis")
    return labels, cobasis, basis


def _permuted_representation(matroid: Matroid, field: Field, labels) -> Matrix:
    rep = matroid.representation_over(field)
    pos = {lab: j for j, lab in enumerate(rep.col_labels)}
    return rep.select_columns([pos[lab] for lab in labels])


def _guard_signs(m: Matrix, field: Field, what: str) -> None:
    allowed = {field.zero(), field.one(), field.neg(field.one())}
    for row in m.entries:
        for x in row:
            if x not in allowed:
                raise NotRegular(f"{what} entry {field.show(x)} outside 0,+1,-1")


def _indicator(field: Field, labels, subset) -> list:
    o, z = field.one(), field.zero()
    return [o if lab in subset else z for lab in labels]


def fundamental_rows(matroid: Matroid, basis, field: Field) -> dict:
    """Signed fundamental cocircuit rows of a basis: {b: {label: coeff}}.

    Row b is the row of the standard form (identity block on the basis
    columns) that carries the 1 of column b; only nonzero entries are kept.
    Entries depend on the basis alone, not on an ordering, so the rows are
    cached on the matroid per (field, basis).

    Characteristic 2: row b is the indicator of the fundamental cocircuit
    C*(B, b), read off the fundamental circuits through the exchange
    identity  b in C(B, e)  <=>  e in C*(B, b)  (Oxley, Matroid Theory,
    2011), so it costs r independence queries per cobasis element and no
    representation.  This is sound: if A represents M over GF(2), row b of
    its standard form on B is supported exactly on C*(B, b), and a GF(2)
    row is its support, so these are the rows of every binary
    representation.  A matroid with no binary representation (U(2,4), say)
    gets the same indicator rows that a representation-free reading always
    gave it; they represent no matroid, and lsop's facet-rank check decides
    what they are worth.

    Other fields: the rows are read off the standard form of
    representation_over(field); an entry outside {0, +1, -1} raises
    NotRegular.
    """
    bset = frozenset(basis)
    key = ("fund_rows", field.name, bset)
    rows = matroid._cache.get(key)
    if rows is not None:
        return rows
    z, one = field.zero(), field.one()
    if field.char == 2:
        rows = {b: {b: one} for b in sorted(bset, key=matroid.position.get)}
        for e in matroid.ground:
            if e not in bset:
                for b in matroid.fundamental_circuit(bset, e) - {e}:
                    rows[b][e] = one
    elif not bset:
        rows = {}
    else:
        rep = matroid.representation_over(field)
        labels = rep.col_labels
        sf = rep.standard_form([j for j, lab in enumerate(labels) if lab in bset])
        _guard_signs(sf, field, "fundamental cocircuit")
        basis_cols = [lab for lab in labels if lab in bset]
        rows = {
            b: {lab: x for lab, x in zip(labels, row) if x != z}
            for b, row in zip(basis_cols, sf.entries)
        }
    matroid._cache[key] = rows
    return rows


def fundamental_matrices(
    matroid: Matroid, ordering, field: Field, validate: bool = True
) -> FundamentalMatrices:
    """Signed fundamental circuit/cocircuit incidence for the ordering's basis.

    The cocircuit rows come from fundamental_rows; the circuit row of a
    cobasis element e has 1 at e and -A[b][e] at each basis element b,
    which makes the two matrices orthogonal.  With validate, the supports
    over a field of characteristic other than 2 (where the rows come from a
    representation) are checked against the independence oracle.
    """
    labels, cobasis, basis = _split_ordering(matroid, ordering)
    F = field
    z, o = F.zero(), F.one()
    rows = fundamental_rows(matroid, basis, F)
    coc_rows = [[rows[b].get(lab, z) for lab in labels] for b in basis]
    circ_rows = [
        [o if lab == e else F.neg(rows[lab].get(e, z)) if lab in rows else z for lab in labels]
        for e in cobasis
    ]
    cm = Matrix(F, circ_rows, col_labels=labels, row_labels=cobasis) \
        if circ_rows else Matrix(F, [], col_labels=labels)
    dm = Matrix(F, coc_rows, col_labels=labels, row_labels=basis) \
        if coc_rows else Matrix(F, [], col_labels=labels)
    if validate and F.char != 2:
        bset = frozenset(basis)
        for m, names, oracle in (
            (cm, cobasis, matroid.fundamental_circuit),
            (dm, basis, matroid.fundamental_cocircuit),
        ):
            for name, row in zip(names, m.entries):
                supp = frozenset(lab for lab, x in zip(labels, row) if x != z)
                want = oracle(bset, name)
                if supp != want:
                    raise AssertionError(f"support mismatch at {name}: {supp} vs {want}")
    return FundamentalMatrices(labels, tuple(basis), tuple(cobasis), cm, dm)


def _row_basis(rep: Matrix) -> Matrix:
    """Same row space, full row rank (nonzero rows of the RREF)."""
    R = rep.rref()
    z = rep.field.zero()
    rows = [r for r in R.entries if any(x != z for x in r)]
    return Matrix(rep.field, rows, col_labels=rep.col_labels)


def _normalize_row(field: Field, row) -> list:
    z = field.zero()
    lead = next((x for x in row if x != z), None)
    if lead is None or lead == field.one():
        return list(row)
    inv = field.inv(lead)
    return [field.mul(inv, x) for x in row]


def _signed_circuit_row(rep: Matrix, labels, circuit, field: Field) -> list:
    idx = [i for i, lab in enumerate(labels) if lab in circuit]
    sub = rep.select_columns(idx)
    ns = sub.null_space_basis()
    if ns.nrows != 1:
        raise AssertionError(f"circuit {set(circuit)} has nullity {ns.nrows} in the representation")
    z = field.zero()
    if any(x == z for x in ns.entries[0]):
        raise AssertionError(f"null vector not fully supported on circuit {set(circuit)}")
    row = [z] * len(labels)
    for k, i in enumerate(idx):
        row[i] = ns.entries[0][k]
    return _normalize_row(field, row)


def _signed_cocircuit_row(rep: Matrix, labels, cocircuit, field: Field) -> list:
    out_idx = [i for i, lab in enumerate(labels) if lab not in cocircuit]
    outside = rep.select_columns(out_idx) if out_idx else Matrix.zero(field, rep.nrows, 0)
    if out_idx:
        left = outside.transpose().null_space_basis()
    else:
        left = Matrix.identity(field, rep.nrows)
    if left.nrows != 1:
        raise AssertionError(
            f"cocircuit {set(cocircuit)} complement has corank {left.nrows} in the row space"
        )
    y = Matrix(field, [left.entries[0]])
    v = y.matmul(rep).entries[0]
    z = field.zero()
    supp = frozenset(lab for lab, x in zip(labels, v) if x != z)
    if supp != frozenset(cocircuit):
        raise AssertionError(f"cocircuit support mismatch: {supp} vs {set(cocircuit)}")
    return _normalize_row(field, v)


def full_circuit_matrix(matroid: Matroid, field: Field, ordering=None) -> Matrix:
    """One signed row per circuit, first nonzero entry +1, rows in circuit order."""
    labels = tuple(ordering) if ordering is not None else matroid.ground
    if sorted(labels) != sorted(matroid.ground):
        raise BadParams("ordering is not a permutation of the ground set")
    circuits = matroid.circuits()
    names = ["{" + ",".join(sorted(c, key=matroid.position.get)) + "}" for c in circuits]
    F = field
    if F.char == 2:
        rows = [_indicator(F, labels, c) for c in circuits]
    else:
        rep = _permuted_representation(matroid, F, labels)
        rows = [_signed_circuit_row(rep, labels, c, F) for c in circuits]
    if not rows:
        return Matrix(F, [], col_labels=labels)
    m = Matrix(F, rows, col_labels=labels, row_labels=names)
    if F.char != 2:
        _guard_signs(m, F, "circuit")
    return m


def full_cocircuit_matrix(matroid: Matroid, field: Field, ordering=None) -> Matrix:
    """One signed row per cocircuit, first nonzero entry +1, rows in cocircuit order."""
    labels = tuple(ordering) if ordering is not None else matroid.ground
    if sorted(labels) != sorted(matroid.ground):
        raise BadParams("ordering is not a permutation of the ground set")
    cocircuits = matroid.cocircuits()
    names = ["{" + ",".join(sorted(c, key=matroid.position.get)) + "}" for c in cocircuits]
    F = field
    if F.char == 2:
        rows = [_indicator(F, labels, c) for c in cocircuits]
    else:
        rep = _row_basis(_permuted_representation(matroid, F, labels))
        rows = [_signed_cocircuit_row(rep, labels, c, F) for c in cocircuits]
    if not rows:
        return Matrix(F, [], col_labels=labels)
    m = Matrix(F, rows, col_labels=labels, row_labels=names)
    if F.char != 2:
        _guard_signs(m, F, "cocircuit")
    return m


class RankReport(NamedTuple):
    n: int
    rank: int
    corank: int
    fundamental_circuit_rank: int
    full_circuit_rank: int
    fundamental_cocircuit_rank: int
    full_cocircuit_rank: int
    orthogonal: bool

    @property
    def ok(self) -> bool:
        return (
            self.fundamental_circuit_rank == self.corank
            and self.full_circuit_rank == self.corank
            and self.fundamental_cocircuit_rank == self.rank
            and self.full_cocircuit_rank == self.rank
            and self.orthogonal
        )


def check_rank_identities(matroid: Matroid, ordering, field: Field) -> RankReport:
    """Ranks of all four incidence matrices plus pairwise orthogonality."""
    fm = fundamental_matrices(matroid, ordering, field)
    cm = full_circuit_matrix(matroid, field, fm.ordering)
    dm = full_cocircuit_matrix(matroid, field, fm.ordering)
    n = len(fm.ordering)
    r = matroid.rank()
    ortho = True
    for a in (fm.circuit_matrix, cm):
        for b in (fm.cocircuit_matrix, dm):
            if a.nrows and b.nrows and not a.matmul(b.transpose()).is_zero():
                ortho = False
    return RankReport(
        n=n,
        rank=r,
        corank=n - r,
        fundamental_circuit_rank=fm.circuit_matrix.rank(),
        full_circuit_rank=cm.rank(),
        fundamental_cocircuit_rank=fm.cocircuit_matrix.rank(),
        full_cocircuit_rank=dm.rank(),
        orthogonal=ortho,
    )


def basis_is_nonsingular(matroid: Matroid, cocircuit_matrix: Matrix, subset) -> bool:
    """True iff the square column-submatrix on `subset` is nonsingular.

    cocircuit_matrix must be an r x n matrix whose row space equals the row
    space of a representation (any output of fundamental_matrices or
    full_cocircuit_matrix qualifies); then nonsingularity of the selected
    columns is equivalent to `subset` being a basis.
    """
    r = matroid.rank()
    sub = frozenset(subset)
    if len(sub) != r:
        raise BadParams(f"subset size {len(sub)} differs from rank {r}")
    if r == 0:
        return True
    if cocircuit_matrix.col_labels is None:
        raise BadParams("cocircuit matrix must carry column labels")
    pos = {lab: j for j, lab in enumerate(cocircuit_matrix.col_labels)}
    idx = [pos[lab] for lab in sorted(sub, key=matroid.position.get)]
    return cocircuit_matrix.select_columns(idx).rank() == r
