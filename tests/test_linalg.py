import random
from fractions import Fraction

import pytest

from matroidlab.errors import BadParams, BadRank, Overbudget, SingularBasis
from matroidlab.fields import GF2_FIELD, GFp, Q_FIELD
from matroidlab.linalg import Matrix, RowSpace, gf2_matrix, tu_signing
from matroidlab.matroids import RESIDUE_FIELD
from test_regularity import minor_rank

FIELDS = (GF2_FIELD, GFp(5), Q_FIELD)


def test_constructors_and_shape():
    m = Matrix.from_int_rows(Q_FIELD, [[1, 2], [3, 4]])
    assert (m.nrows, m.ncols) == (2, 2)
    assert m.entries[1][0] == Fraction(3)
    assert Matrix.identity(GF2_FIELD, 3).rank() == 3
    assert Matrix.zero(Q_FIELD, 2, 5).rank() == 0
    with pytest.raises(Exception):
        Matrix(Q_FIELD, [[1, 2], [3]])


def test_equality_ignores_labels():
    a = Matrix.from_int_rows(GF2_FIELD, [[1, 0]], col_labels=("a", "b"))
    b = Matrix.from_int_rows(GF2_FIELD, [[1, 0]])
    assert a == b


@pytest.mark.parametrize("field", FIELDS)
def test_rank_and_rref(field):
    m = Matrix.from_int_rows(field, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    # over gf2 the three rows sum to zero; elsewhere they are independent
    assert m.rank() == (2 if field.char == 2 else 3)
    r = m.rref()
    assert r.rank() == m.rank()
    assert r.nrows == m.rank()


def test_rref_is_reduced():
    m = Matrix.from_int_rows(Q_FIELD, [[2, 4, 0], [1, 2, 1]])
    r = m.rref()
    assert r.entries == ((Fraction(1), Fraction(2), Fraction(0)),
                         (Fraction(0), Fraction(0), Fraction(1)))


@pytest.mark.parametrize("field", FIELDS)
def test_standard_form_identity_block(field):
    m = Matrix.from_int_rows(field, [[1, 1, 1, 0], [0, 1, 1, 1]])
    s = m.standard_form([2, 3])
    one, zero = field.one(), field.zero()
    assert [s.entries[0][2], s.entries[0][3]] == [one, zero]
    assert [s.entries[1][2], s.entries[1][3]] == [zero, one]


def test_standard_form_errors():
    m = Matrix.from_int_rows(Q_FIELD, [[1, 1, 0], [2, 2, 0]])
    with pytest.raises(SingularBasis):
        m.standard_form([0, 1])  # columns 0,1 are proportional
    with pytest.raises(BadRank):
        Matrix.from_int_rows(Q_FIELD, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).standard_form([0, 1])
    with pytest.raises(BadParams):
        m.standard_form([0, 0])
    with pytest.raises(BadParams):
        m.standard_form([5])


@pytest.mark.parametrize("field", FIELDS)
def test_null_space_is_orthogonal(field):
    m = Matrix.from_int_rows(field, [[1, 1, 1, 0], [0, 1, 0, 1]])
    ns = m.null_space_basis()
    assert ns.nrows == 2
    prod = m.matmul(ns.transpose())
    assert prod.is_zero()


def test_total_unimodularity():
    tri = Matrix.from_int_rows(Q_FIELD, [[1, 0, -1], [-1, 1, 0], [0, -1, 1]])
    assert tri.is_totally_unimodular()
    bad = Matrix.from_int_rows(Q_FIELD, [[1, 1], [-1, 1]])
    assert not bad.is_totally_unimodular()
    with pytest.raises(BadParams):
        Matrix.from_int_rows(Q_FIELD, [[2]]).is_totally_unimodular()
    # the certificate enumerates column subsets of [I | X]: 10 + 11 columns
    # exceed the enumeration cap
    with pytest.raises(Overbudget):
        Matrix.zero(Q_FIELD, 10, 11).is_totally_unimodular()


def test_tu_signing_roundtrip():
    support = gf2_matrix([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    signed = tu_signing(support)
    assert signed.is_totally_unimodular()
    back = signed.map_to_field(GF2_FIELD)
    assert back == support
    # the Fano plane is not regular: its support still gets a signing, which
    # is not TU
    fano = gf2_matrix([
        [1, 0, 0, 1, 1, 0, 1],
        [0, 1, 0, 1, 0, 1, 1],
        [0, 0, 1, 0, 1, 1, 1],
    ])
    signed = tu_signing(fano)
    assert signed.map_to_field(GF2_FIELD) == fano
    assert not signed.is_totally_unimodular()
    with pytest.raises(BadParams):
        tu_signing(Matrix.from_int_rows(Q_FIELD, [[1, -1]]))


def test_standard_form_is_the_rref_with_basis_first():
    rng = random.Random(808)
    for field in FIELDS:
        for _ in range(40):
            nrows, ncols = rng.randint(1, 4), rng.randint(2, 6)
            m = Matrix(field, [[field.from_int(rng.randint(-2, 2)) for _ in range(ncols)]
                               for _ in range(nrows)])
            r = m.rank()
            cols = sorted(rng.sample(range(ncols), r))
            if m.select_columns(cols).rank() < r:
                continue
            sf = m.standard_form(cols)
            assert sf.rank() == r and sf.nrows == r
            one, zero = field.one(), field.zero()
            for k, c in enumerate(cols):
                assert sf.column(c) == tuple(one if i == k else zero for i in range(r))
            # same row space as m
            assert Matrix(field, m.entries + sf.entries).rank() == r


@pytest.mark.parametrize("field", FIELDS + (RESIDUE_FIELD,))
def test_rowspace_matches_batch_rank(field):
    rng = random.Random(414)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
        rows = [[field.from_int(rng.randint(-2, 2)) for _ in range(ncols)]
                for _ in range(nrows)]
        space = RowSpace(field, ncols)
        grew = sum(space.add(r) for r in rows)
        assert space.rank == grew == Matrix(field, rows).rank() == minor_rank(field, rows)


def test_rowspace_add_reports_growth():
    space = RowSpace(GF2_FIELD, 3)
    assert space.add([1, 1, 0])
    assert space.add([0, 1, 1])
    assert not space.add([1, 0, 1])  # sum of the first two
    assert space.rank == 2
