import random
from fractions import Fraction

import pytest

from matroidlab.errors import BadParams, BadRank, Overbudget, SingularBasis
from matroidlab.fields import GF2_FIELD, GFp, Q_FIELD
from matroidlab.linalg import Matrix, RowSpace, tu_signing
from matroidlab.matroids import RESIDUE_FIELD
from test_regularity import columns, minor_rank

FIELDS = (GF2_FIELD, GFp(5), Q_FIELD)


def rref_rows(m: Matrix) -> tuple:
    """(rows, pivot columns) of the reduced row echelon form of m's rows."""
    space = RowSpace(m.field, m.ncols)
    for r in m.entries:
        space.add(r)
    return space.rref()


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
    rows, pivots = rref_rows(m)
    assert Matrix(field, rows).rank() == m.rank()
    assert len(rows) == len(pivots) == m.rank()


def test_rref_is_reduced():
    m = Matrix.from_int_rows(Q_FIELD, [[2, 4, 0], [1, 2, 1]])
    assert rref_rows(m) == ([[Fraction(1), Fraction(2), Fraction(0)],
                         [Fraction(0), Fraction(0), Fraction(1)]], [0, 2])


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
    support = Matrix.from_int_rows(GF2_FIELD, [[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    signed = tu_signing(support)
    assert signed.is_totally_unimodular()
    back = signed.map_to_field(GF2_FIELD)
    assert back == support
    # the Fano plane is not regular: its support still gets a signing, which
    # is not TU
    fano = Matrix.from_int_rows(GF2_FIELD, [
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
            if columns(m, cols).rank() < r:
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


# -- the fraction-free Q kernel against a textbook reference -------------------

P61 = (1 << 61) - 1


def fraction_rref(rows, ncols) -> tuple:
    """(rows, pivots) of the RREF by textbook Gauss-Jordan on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        k = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if k is None:
            continue
        top = len(pivots)
        m[top], m[k] = m[k], m[top]
        m[top] = [x / m[top][c] for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[top])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def rational_matrices():
    """Seeded Q matrices: small fractions (denominators up to 7), integers up
    to 10^20, a column of multiples of 2^61 - 1, zero rows and rows that are
    combinations of earlier ones; then the 10 x 10 Hilbert matrix."""
    rng = random.Random("fraction-free")
    for i in range(90):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        kind = i % 3
        if kind == 0:
            draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        elif kind == 1:
            draw = lambda: Fraction(rng.choice((0, rng.randint(-10**20, 10**20))))
        else:
            draw = lambda: Fraction(rng.randint(-3, 3))
        rows = [[draw() for _ in range(ncols)] for _ in range(nrows)]
        if kind == 2:
            j = rng.randrange(ncols)
            for r in rows:
                r[j] = Fraction(P61 * rng.randint(-3, 3))
        for _ in range(rng.randint(0, 2)):
            a, b, f = rng.choice(rows), rng.choice(rows), draw()
            rows.insert(rng.randint(0, len(rows)), [x + f * y for x, y in zip(a, b)])
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), [Fraction(0)] * ncols)
        yield rows
    yield [[Fraction(1, i + j + 1) for j in range(10)] for i in range(10)]


def test_rational_kernel_matches_gauss_jordan():
    for rows in rational_matrices():
        ncols = len(rows[0])
        ref, pivots = fraction_rref(rows, ncols)
        ref_growth = [len(fraction_rref(rows[:k + 1], ncols)[1]) > len(fraction_rref(rows[:k], ncols)[1])
                      for k in range(len(rows))]
        space = RowSpace(Q_FIELD, ncols)
        assert [space.add(r) for r in rows] == ref_growth
        m = Matrix(Q_FIELD, rows)
        assert space.rank == m.rank() == len(pivots)
        if len(rows) <= 5 and ncols <= 5:
            assert space.rank == minor_rank(Q_FIELD, rows)
        assert space.rref() == (ref, pivots)
        assert all(type(x) is Fraction for r in space.rref()[0] for x in r)
        # standard form on the last basis of columns, the pivots of the
        # columns reversed: the RREF of the columns reordered so the basis
        # comes first, put back in place
        basis = sorted(ncols - 1 - j for j in fraction_rref([r[::-1] for r in rows], ncols)[1])
        order = basis + [j for j in range(ncols) if j not in basis]
        sf_ref, _ = fraction_rref([[r[j] for j in order] for r in rows], ncols)
        back = sorted(range(ncols), key=order.__getitem__)
        assert m.standard_form(basis).entries == tuple(tuple(r[t] for t in back) for r in sf_ref)


def test_hilbert_matrix_has_full_rank():
    hilbert = [[Fraction(1, i + j + 1) for j in range(10)] for i in range(10)]
    m = Matrix(Q_FIELD, hilbert)
    assert m.rank() == 10
    rows, pivots = rref_rows(m)
    assert Matrix(Q_FIELD, rows) == Matrix.identity(Q_FIELD, 10)
    assert pivots == list(range(10))
