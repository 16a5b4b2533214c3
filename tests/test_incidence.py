import random
from fractions import Fraction
from itertools import combinations

import pytest

from matroidlab.complexes import standard_ordering
from matroidlab.errors import BadParams, NotRegular, NotStandardOrdering
from matroidlab.families import named_matroid, phi_matroid, theta_matroid
from matroidlab.fields import GF2_FIELD, Q_FIELD, field_from_name
from matroidlab.incidence import (
    _orthogonal as sparse_orthogonal,
    basis_is_nonsingular,
    check_rank_identities,
    full_circuit_matrix,
    full_cocircuit_matrix,
    fundamental_matrices,
    fundamental_rows,
)
from matroidlab.linalg import Matrix
from matroidlab.matroids import from_graph, from_matrix, uniform
from matroidlab.verify import family_fixtures, named_fixtures, uniform_fixtures
from test_linalg import rref_rows
from test_regularity import columns

TRIANGLE = (("a", "b"), ("b", "c"), ("c", "a"))


def _dot(field, u, v):
    acc = field.zero()
    for x, y in zip(u, v):
        acc = field.add(acc, field.mul(x, y))
    return acc


def _orthogonal(a, b) -> bool:
    """Every row of a against every row of b, over all columns."""
    return all(_dot(a.field, u, v) == a.field.zero() for u in a.entries for v in b.entries)


def test_fundamental_shapes_u23_over_q():
    m = uniform(2, 3)
    fm = fundamental_matrices(m, ("e1", "e2", "e3"), Q_FIELD)
    std = standard_ordering(m, ("e1", "e2", "e3"))
    assert std.cobasis == ("e1",) and std.basis == ("e2", "e3")
    assert (fm.circuit_matrix.nrows, fm.circuit_matrix.ncols) == (1, 3)
    assert (fm.cocircuit_matrix.nrows, fm.cocircuit_matrix.ncols) == (2, 3)
    # identity blocks: circuit rows start with I, cocircuit rows end with I
    assert fm.circuit_matrix.entries[0][0] == Fraction(1)
    assert fm.cocircuit_matrix.entries[0][1] == Fraction(1)
    assert fm.cocircuit_matrix.entries[1][2] == Fraction(1)
    assert fm.cocircuit_matrix.entries[0][2] == Fraction(0)
    assert _orthogonal(fm.circuit_matrix, fm.cocircuit_matrix)


def test_fundamental_rows_support_matches_oracle():
    m = from_graph(TRIANGLE + (("c", "d"), ("d", "a")))
    ordering = ("e2", "e4", "e1", "e3", "e5")
    for field in (GF2_FIELD, Q_FIELD):
        fm = fundamental_matrices(m, ordering, field)
        std = standard_ordering(m, ordering)
        basis = frozenset(std.basis)
        z = field.zero()
        for i, e in enumerate(std.cobasis):
            want = m.fundamental_circuit(basis, e)
            got = {ordering[j] for j, x in enumerate(fm.circuit_matrix.entries[i]) if x != z}
            assert got == want
        for i, b in enumerate(std.basis):
            want = m.fundamental_cocircuit(basis, b)
            got = {ordering[j] for j, x in enumerate(fm.cocircuit_matrix.entries[i]) if x != z}
            assert got == want


def test_char2_matches_signed_mod2():
    m = from_graph(TRIANGLE + (("c", "d"),))
    ordering = ("e3", "e1", "e2", "e4")
    over_q = fundamental_matrices(m, ordering, Q_FIELD)
    over_2 = fundamental_matrices(m, ordering, GF2_FIELD)
    assert over_q.cocircuit_matrix.map_to_field(GF2_FIELD) == over_2.cocircuit_matrix
    assert over_q.circuit_matrix.map_to_field(GF2_FIELD) == over_2.circuit_matrix


def test_char2_path_needs_no_representation():
    m = uniform(2, 4)  # representable over neither gf2 nor q
    fm = fundamental_matrices(m, ("e1", "e2", "e3", "e4"), GF2_FIELD)
    assert fm.circuit_matrix.entries[0] == (1, 0, 1, 1)
    assert fm.circuit_matrix.entries[1] == (0, 1, 1, 1)


def test_fundamental_rejects_dependent_tail():
    m = from_graph(TRIANGLE + (("c", "d"),))
    with pytest.raises(NotStandardOrdering):
        fundamental_matrices(m, ("e4", "e1", "e2", "e3"), Q_FIELD)
    with pytest.raises(BadParams):
        fundamental_matrices(m, ("e1", "e2", "e3"), Q_FIELD)


def test_full_matrices_first_nonzero_is_one():
    m = from_graph(TRIANGLE + (("c", "d"), ("d", "a")))
    for field in (Q_FIELD, GF2_FIELD):
        cm = full_circuit_matrix(m, field, m.ground)
        dm = full_cocircuit_matrix(m, field, m.ground)
        assert cm.nrows == len(m.circuits())
        assert dm.nrows == len(m.cocircuits())
        one, zero = field.one(), field.zero()
        for row in cm.entries + dm.entries:
            lead = next(x for x in row if x != zero)
            assert lead == one
        assert _orthogonal(cm, dm)


@pytest.mark.parametrize("name", ("gf2", "gf3", "q"))
def test_sparse_orthogonality_equals_the_dense_products(name):
    field = field_from_name(name)
    rng = random.Random(f"orthogonal:{name}")
    seen = set()
    for _ in range(300):
        a, b = (
            Matrix.from_int_rows(field, [[rng.choice((0, 0, 1, -1)) for _ in range(4)]
                                         for _ in range(rng.randint(0, 3))])
            for _ in range(2)
        )
        want = _orthogonal(a, b)
        assert sparse_orthogonal(field, a, b) == want, (a.entries, b.entries)
        seen.add(want)
    assert seen == {True, False}


def test_rank_identities_on_graphs():
    m = from_graph(TRIANGLE + (("c", "d"), ("d", "a"), ("d", "b")))
    for field in (GF2_FIELD, Q_FIELD):
        rep = check_rank_identities(m, m.ground, field)
        assert rep.ok
        assert rep.fundamental_circuit_rank == rep.full_circuit_rank == rep.n - rep.rank
        assert rep.fundamental_cocircuit_rank == rep.full_cocircuit_rank == rep.rank
        assert rep.orthogonal


def test_basis_nonsingular_agrees_with_oracle():
    m = from_graph(TRIANGLE + (("c", "d"),))
    rows = fundamental_rows(m, ("e1", "e2", "e4"), Q_FIELD)
    for sub in combinations(m.ground, m.rank()):
        assert basis_is_nonsingular(rows, sub, Q_FIELD) == m.is_independent(sub)
    with pytest.raises(BadParams):
        basis_is_nonsingular(rows, ("e1",), Q_FIELD)


@pytest.mark.parametrize("name", ("gf2", "gf3", "q"))
def test_basis_nonsingular_on_rows_equals_the_dense_column_rank(name):
    # the rows of fundamental_rows, tested column by column, against the
    # rank of the same columns of fundamental_matrices' dense cocircuit
    # matrix; U(2,4) has oracle rows over gf2 only
    field = field_from_name(name)
    fixtures = [m for n, m in uniform_fixtures() + named_fixtures() if n != "u24" or field.char == 2]
    fixtures += [m for _, m, _ in family_fixtures()]
    for m in fixtures:
        r = m.rank()
        for basis in m.bases()[:: max(1, len(m.bases()) // 3)]:
            ordering = [e for e in m.ground if e not in basis] + sorted(basis, key=m.position.get)
            cm = fundamental_matrices(m, ordering, field).cocircuit_matrix
            rows = fundamental_rows(m, basis, field)
            for sub in combinations(m.ground, r):
                idx = [ordering.index(e) for e in sub]
                dense = r == 0 or columns(cm, idx).rank() == r
                assert basis_is_nonsingular(rows, sub, field) == dense, (m, basis, sub)


def test_u23_exact_signed_entries():
    # hand-derived from the standard form of [[1,0,1],[0,1,1]]
    m = uniform(2, 3)
    fm = fundamental_matrices(m, ("e1", "e2", "e3"), Q_FIELD)
    assert fm.circuit_matrix.entries == ((Fraction(1), Fraction(1), Fraction(-1)),)
    assert fm.cocircuit_matrix.entries == (
        (Fraction(-1), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(1)),
    )


def test_non_regular_refuses_signed_construction():
    m = uniform(2, 4)
    with pytest.raises(NotRegular):
        fundamental_matrices(m, ("e1", "e2", "e3", "e4"), Q_FIELD)
    # the char-2 indicator path needs no representation
    fm = fundamental_matrices(m, ("e1", "e2", "e3", "e4"), GF2_FIELD)
    assert fm.circuit_matrix.nrows == 2


GLUED_SIZES = ((2, 3), (3, 3), (2, 2, 2))
GF2_INSTANCES = ("r10", "dualk33", "dualk33raw", "k33", "k4") + tuple(
    f"{family}{sizes}" for family in ("theta", "phi") for sizes in GLUED_SIZES
)


def _instance(name):
    for family, build in (("theta", theta_matroid), ("phi", phi_matroid)):
        if name.startswith(family):
            return build(tuple(int(x) for x in name[len(family) + 1:-1].split(",")))[0]
    return named_matroid(name)


@pytest.mark.parametrize("name", GF2_INSTANCES)
def test_gf2_rows_equal_representation_standard_form(name):
    # the rows read off the oracle must be exactly the standard-form rows
    # of a binary representation, for every basis
    m = _instance(name)
    rep = m.representation_over(GF2_FIELD)
    labels = rep.col_labels
    for basis in m.bases():
        cols = [j for j, lab in enumerate(labels) if lab in basis]
        want = {
            labels[c]: {lab: 1 for lab, x in zip(labels, row) if x}
            for c, row in zip(cols, rep.standard_form(cols).entries)
        }
        assert fundamental_rows(m, basis, GF2_FIELD) == want, sorted(basis)


def test_fundamental_rows_cached_per_field_and_basis():
    m = from_graph(TRIANGLE + (("c", "d"),))
    basis = frozenset({"e1", "e2", "e4"})
    rows = fundamental_rows(m, basis, Q_FIELD)
    assert fundamental_rows(m, ("e4", "e2", "e1"), Q_FIELD) is rows
    assert fundamental_rows(m, basis, GF2_FIELD) is not rows


# -- the null-space construction, kept as an independent reference ------------
#
# Each signed circuit row is the one-dimensional null space of the
# representation's circuit columns; each signed cocircuit row is y A for the
# one vector y of the left null space of the columns outside the cocircuit,
# taken on a full-row-rank A.  Over characteristic 2 the rows are indicators.


def _ref_representation(matroid, field, labels):
    rep = matroid.representation_over(field)
    pos = {lab: j for j, lab in enumerate(rep.col_labels)}
    return columns(rep, [pos[lab] for lab in labels])


def _ref_null_space(m):
    """One row per free column of the RREF; entry at the free column is 1."""
    F = m.field
    rows, pivots = rref_rows(m)
    out = []
    for f in sorted(set(range(m.ncols)) - set(pivots)):
        v = [F.zero()] * m.ncols
        v[f] = F.one()
        for r, p in zip(rows, pivots):
            v[p] = F.neg(r[f])
        out.append(v)
    return Matrix(F, out)


def _ref_normalize(field, row):
    z = field.zero()
    lead = next((x for x in row if x != z), None)
    if lead is None or lead == field.one():
        return list(row)
    inv = field.inv(lead)
    return [field.mul(inv, x) for x in row]


def _ref_circuit_row(rep, labels, circuit, field):
    idx = [i for i, lab in enumerate(labels) if lab in circuit]
    ns = _ref_null_space(columns(rep, idx))
    z = field.zero()
    assert ns.nrows == 1 and all(x != z for x in ns.entries[0])
    row = [z] * len(labels)
    for k, i in enumerate(idx):
        row[i] = ns.entries[0][k]
    return _ref_normalize(field, row)


def _ref_cocircuit_row(rep, labels, cocircuit, field):
    out_idx = [i for i, lab in enumerate(labels) if lab not in cocircuit]
    if out_idx:
        left = _ref_null_space(Matrix(field, list(zip(*columns(rep, out_idx).entries))))
    else:
        left = Matrix.identity(field, rep.nrows)
    assert left.nrows == 1
    v = [_dot(field, left.entries[0], col) for col in zip(*rep.entries)]
    z = field.zero()
    assert frozenset(lab for lab, x in zip(labels, v) if x != z) == frozenset(cocircuit)
    return _ref_normalize(field, v)


def _ref_full_matrix(matroid, field, ordering, cocircuits):
    labels = tuple(ordering)
    sets = matroid.cocircuits() if cocircuits else matroid.circuits()
    if field.char == 2:
        o, z = field.one(), field.zero()
        rows = [[o if lab in c else z for lab in labels] for c in sets]
    else:
        rep = _ref_representation(matroid, field, labels)
        if cocircuits:
            rep = Matrix(field, rref_rows(rep)[0])
            rows = [_ref_cocircuit_row(rep, labels, c, field) for c in sets]
        else:
            rows = [_ref_circuit_row(rep, labels, c, field) for c in sets]
        allowed = {field.zero(), field.one(), field.neg(field.one())}
        if any(x not in allowed for row in rows for x in row):
            raise NotRegular("entry outside 0,+1,-1")
    return Matrix(field, rows, col_labels=labels)


def _corpus():
    """83 matroids: the named fixtures, small uniform matroids, glued
    families, a graph with a loop and 60 seeded random column matroids."""
    out = [named_matroid(name) for name in ("r10", "dualk33", "dualk33raw", "k33", "k4")]
    out += [uniform(r, n) for r, n in ((0, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5), (2, 2))]
    for build in (theta_matroid, phi_matroid):
        out += [build(sizes)[0] for sizes in ((2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2))]
    out.append(from_graph(TRIANGLE + (("c", "c"), ("c", "d"))))
    rng = random.Random("incidence corpus")
    for name, values in (("gf2", (0, 1)), ("gf3", (0, 1, -1, 2)),
                         ("gf5", (0, 1, -1, 2)), ("q", (0, 1, -1, 2))):
        field = field_from_name(name)
        for _ in range(15):
            nrows, ncols = rng.randint(1, 3), rng.randint(2, 6)
            rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
            out.append(from_matrix(Matrix.from_int_rows(field, rows)))
    return out


def _outcome(build, *args):
    try:
        m = build(*args)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)
    return m.entries, {type(x) for row in m.entries for x in row}, m.col_labels


def test_full_matrices_match_null_space_reference():
    corpus = _corpus()
    assert len(corpus) == 83
    cases = 0
    for m in corpus:
        ordering = tuple(reversed(m.ground))
        for name in ("gf2", "gf3", "gf5", "q"):
            field = field_from_name(name)
            for build, cocircuits in ((full_circuit_matrix, False), (full_cocircuit_matrix, True)):
                got = _outcome(build, m, field, ordering)
                want = _outcome(_ref_full_matrix, m, field, ordering, cocircuits)
                assert want is not AssertionError, (m.to_json(), name)
                assert got == want, (m.to_json(), name, build.__name__)
                cases += 1
    assert cases == 664
