"""Signed circuit and cocircuit incidence matrices.

Rows are indexed by circuits or cocircuits, columns by ground set elements
in a chosen ordering.  Every signed row comes from fundamental_rows, the
standard form on a basis B: row b is the fundamental cocircuit C*(B, b)
and column e, negated and with 1 at e, the fundamental circuit C(B, e).
Every circuit C is C(B, e) for any basis B containing C - e, every
cocircuit D is C*(B, b) for any basis B with B & D = {b} (Oxley, Matroid
Theory, 2011, ch. 2), and a signed (co)circuit vector is unique up to
scale, so there is no other source.

Over GF(2) fundamental_rows reads the rows off the independence oracle, so
the matrices are 0/1 incidence indicators and need no representation.
That is sound because a GF(2) row is its support and the standard form of
any binary representation on B has row b supported exactly on C*(B, b).
A matroid with no binary representation gets the same oracle rows; they
are what a representation-free reading always gave it.  Over other fields
the entries come from representation_over(field) and must land in
{-1, 0, +1}, else the construction raises NotRegular.

Sign conventions are fixed so identical inputs give identical matrices:
the cocircuit rows attached to a basis are the rows of the standard form
of the representation (identity block on the basis columns), and every
standalone elementary vector is scaled so its first nonzero entry, in
column order, equals +1.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from .complexes import Ordering, standard_ordering
from .errors import BadParams, NotRegular
from .fields import Field
from .linalg import Matrix, RowSpace
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
    circuit_matrix: Matrix
    cocircuit_matrix: Matrix


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
    representation_over(field), even at rank 0, where it has no rows; an
    entry outside {0, +1, -1} raises NotRegular.
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
    else:
        rep = matroid.representation_over(field)
        labels = rep.col_labels
        sf = rep.standard_form([j for j, lab in enumerate(labels) if lab in bset])
        allowed = {z, one, field.neg(one)}
        bad = next((x for row in sf.entries for x in row if x not in allowed), None)
        if bad is not None:
            raise NotRegular(f"fundamental cocircuit entry {field.show(bad)} outside 0,+1,-1")
        basis_cols = [lab for lab in labels if lab in bset]
        rows = {
            b: {lab: x for lab, x in zip(labels, row) if x != z}
            for b, row in zip(basis_cols, sf.entries)
        }
    matroid._cache[key] = rows
    return rows


def _circuit_row(field: Field, rows: dict, e, labels) -> list:
    """C(B, e) off rows = fundamental_rows(B): 1 at e, -rows[b][e] at each b."""
    z = field.zero()
    return [
        field.one() if lab == e else field.neg(rows[lab].get(e, z)) if lab in rows else z
        for lab in labels
    ]


def _check_support(field: Field, labels, row, want) -> None:
    supp = frozenset(lab for lab, x in zip(labels, row) if x != field.zero())
    if supp != want:
        raise AssertionError(f"row support {set(supp)} differs from {set(want)}")


def fundamental_matrices(matroid: Matroid, ordering, field: Field) -> FundamentalMatrices:
    """Signed fundamental circuit/cocircuit incidence for the ordering's basis.

    The cocircuit rows come from fundamental_rows, the circuit rows from
    _circuit_row on the same rows, which makes the two matrices orthogonal.
    Over a field of characteristic other than 2, where the rows come from a
    representation, their supports are checked against the independence
    oracle.
    """
    std = standard_ordering(matroid, ordering)
    labels, cobasis, basis = std.labels, std.cobasis, std.basis
    F = field
    z = F.zero()
    rows = fundamental_rows(matroid, basis, F)
    coc_rows = [[rows[b].get(lab, z) for lab in labels] for b in basis]
    circ_rows = [_circuit_row(F, rows, e, labels) for e in cobasis]
    cm = Matrix(F, circ_rows, col_labels=labels)
    dm = Matrix(F, coc_rows, col_labels=labels)
    if F.char != 2:
        bset = frozenset(basis)
        for e, row in zip(cobasis, circ_rows):
            _check_support(F, labels, row, matroid.fundamental_circuit(bset, e))
        for b, row in zip(basis, coc_rows):
            _check_support(F, labels, row, matroid.fundamental_cocircuit(bset, b))
    return FundamentalMatrices(labels, cm, dm)


def _full_matrix(matroid: Matroid, field: Field, ordering, elementary, row_of) -> Matrix:
    """One row per set of elementary(): row_of(set, its least element,
    labels), scaled to a leading +1 and checked to be supported on the set.

    Outside characteristic 2 the representation is asked for first, so a
    matroid with none over the field raises NotRegular even with no
    circuits.  Column e of a standard form is C(B, e)'s vector scaled by its
    +-1 entry at e and row b is C*(B, b)'s, so a standard form leaves
    {0, +1, -1} exactly when one of those vectors does: NotRegular is raised
    exactly where a per-(co)circuit null-space solve would raise it.
    """
    labels = tuple(ordering)
    Ordering(labels).validate_for(matroid)
    sets = elementary()
    if field.char != 2:
        matroid.representation_over(field)
    rows = []
    for s in sets:
        row = row_of(s, min(s, key=matroid.position.get), labels)
        inv = field.inv(next(x for x in row if x != field.zero()))
        rows.append([field.mul(inv, x) for x in row])
        _check_support(field, labels, rows[-1], s)
    return Matrix(field, rows, col_labels=labels)


def full_circuit_matrix(matroid: Matroid, field: Field, ordering) -> Matrix:
    """One signed row per circuit, first nonzero entry +1, rows in circuit order.

    A circuit C with least element e is C(B, e) for B the greedy basis of
    (C - e) + (E - C), which holds the independent C - e and misses e.
    """

    def row_of(c, e, labels):
        ground = matroid.ground
        basis = matroid._greedy_basis(
            [x for x in ground if x in c and x != e] + [x for x in ground if x not in c]
        )
        return _circuit_row(field, fundamental_rows(matroid, basis, field), e, labels)

    return _full_matrix(matroid, field, ordering, matroid.circuits, row_of)


def full_cocircuit_matrix(matroid: Matroid, field: Field, ordering) -> Matrix:
    """One signed row per cocircuit, first nonzero entry +1, rows in cocircuit order.

    A cocircuit D with least element b is C*(B, b) for B the greedy basis of
    b + (E - D): E - D is a hyperplane that b, no loop, does not lie in, so
    B meets D in b alone.
    """
    z = field.zero()

    def row_of(d, b, labels):
        basis = matroid._greedy_basis([b] + [x for x in matroid.ground if x not in d])
        row = fundamental_rows(matroid, basis, field)[b]
        return [row.get(lab, z) for lab in labels]

    return _full_matrix(matroid, field, ordering, matroid.cocircuits, row_of)


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


def _orthogonal(field: Field, a: Matrix, b: Matrix) -> bool:
    """Every row of a is orthogonal to every row of b, each dot product
    summed over the columns where both rows are nonzero."""
    z = field.zero()
    rows_a, rows_b = ([{j: x for j, x in enumerate(r) if x != z} for r in m.entries] for m in (a, b))
    return all(
        reduce(field.add, (field.mul(x, v[j]) for j, x in u.items() if j in v), z) == z
        for u in rows_a for v in rows_b
    )


def check_rank_identities(matroid: Matroid, ordering, field: Field) -> RankReport:
    """Ranks of all four incidence matrices plus pairwise orthogonality."""
    fm = fundamental_matrices(matroid, ordering, field)
    cm = full_circuit_matrix(matroid, field, fm.ordering)
    dm = full_cocircuit_matrix(matroid, field, fm.ordering)
    n = len(fm.ordering)
    r = matroid.rank()
    return RankReport(
        n=n,
        rank=r,
        corank=n - r,
        fundamental_circuit_rank=fm.circuit_matrix.rank(),
        full_circuit_rank=cm.rank(),
        fundamental_cocircuit_rank=fm.cocircuit_matrix.rank(),
        full_cocircuit_rank=dm.rank(),
        orthogonal=all(
            _orthogonal(field, a, b) for a in (fm.circuit_matrix, cm) for b in (fm.cocircuit_matrix, dm)
        ),
    )


def basis_is_nonsingular(rows: dict, subset, field: Field) -> bool:
    """True iff the columns on `subset` of `rows` are linearly independent.

    rows must be fundamental_rows(M, B, field) for some basis B, so there
    is one row per basis element.  Where those rows are a standard form of a
    representation of M, the columns on a rank-sized subset are independent
    exactly when the subset is a basis.  BadParams when the subset's size is
    not the rank.
    """
    sub = frozenset(subset)
    if len(sub) != len(rows):
        raise BadParams(f"subset size {len(sub)} differs from rank {len(rows)}")
    z = field.zero()
    space = RowSpace(field, len(rows))
    return all(space.add([row.get(e, z) for row in rows.values()]) for e in sub)
