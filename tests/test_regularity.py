"""Camion's signing and the regularity certificate against brute force.

The oracle here is the definition of total unimodularity: every square
submatrix has determinant -1, 0 or +1, checked minor by minor.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

from matroidlab.errors import NotRegular
from matroidlab.fields import GF2_FIELD, GFp, Q_FIELD
from matroidlab.linalg import Matrix, tu_signing
from matroidlab.matroids import from_matrix, uniform


def columns(m: Matrix, idx) -> Matrix:
    """The columns of m at the indices idx, in that order."""
    return Matrix(m.field, [[r[j] for j in idx] for r in m.entries])


def _det(rows) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def minor_rank(field, rows) -> int:
    """The largest k with a nonzero k x k minor, on an integer lift of the
    rows (each scaled by the lcm of its denominators), taken mod p over GF(p)."""
    p = field.char
    ints = []
    for r in rows:
        scale = lcm(*(Fraction(x).denominator for x in r))
        ints.append([int(Fraction(x) * scale) for x in r])
    nrows, ncols = len(ints), len(ints[0]) if ints else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rs in combinations(range(nrows), k):
            for cs in combinations(range(ncols), k):
                d = _det([[ints[i][j] for j in cs] for i in rs])
                if d % p if p else d:
                    return k
    return 0


def brute_force_tu(rows) -> bool:
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    return all(
        _det([[rows[i][j] for j in cs] for i in rs]) in (-1, 0, 1)
        for k in range(1, min(nrows, ncols) + 1)
        for rs in combinations(range(nrows), k)
        for cs in combinations(range(ncols), k)
    )


def _normalised(rows) -> list:
    """Each column scaled so its first nonzero is +1."""
    out = [list(r) for r in rows]
    for j in range(len(rows[0])):
        first = next((r[j] for r in rows if r[j]), 1)
        for r in out:
            r[j] *= first
    return out


def _dfs_key(rows) -> list:
    """Column by column, the non-leading entries from the bottom row up, -1 after +1."""
    key = []
    for j in range(len(rows[0])):
        sup = [i for i in range(len(rows)) if rows[i][j]]
        key.extend(rows[i][j] < 0 for i in reversed(sup[1:]))
    return key


def _least_rescaling(rows) -> list:
    """The least normalised matrix over all +-1 row scalings."""
    return min(
        (_normalised([[s * x for x in r] for s, r in zip(signs, rows)])
         for signs in product((1, -1), repeat=len(rows))),
        key=_dfs_key,
    )


def _random_network_matrix(rng) -> list:
    """A network matrix (TU): a random digraph's incidence matrix in standard form
    on a spanning tree, cut to at most 5 x 8 and sometimes transposed."""
    nv = rng.randint(3, 7)
    arcs = [(v, rng.randrange(v)) for v in range(1, nv)]  # a spanning tree first
    arcs += [tuple(rng.sample(range(nv), 2)) for _ in range(rng.randint(1, 10))]
    rng.shuffle(arcs)
    inc = [[(u == v) - (w == v) for u, w in arcs] for v in range(nv)]
    m = Matrix.from_int_rows(Q_FIELD, inc)
    basis = []
    for j in range(len(arcs)):
        if columns(m, basis + [j]).rank() > len(basis):
            basis.append(j)
    sf = m.standard_form(basis)
    rest = [j for j in range(len(arcs)) if j not in basis]
    net = [[int(r[j]) for j in rest] for r in sf.entries]
    if rng.random() < 0.5:
        net = [list(c) for c in zip(*net)]
    rows = rng.sample(range(len(net)), min(len(net), 5))
    cols = rng.sample(range(len(net[0])), min(len(net[0]), 8))
    return [[net[i][j] for j in sorted(cols)] for i in sorted(rows)]


# a network matrix whose least signing depends on scanning each column
# from the bottom row up
BOTTOM_UP = [
    [0, 0, -1, 1, 0], [1, 1, 0, 0, -1], [0, 1, -1, 1, 0], [-1, 0, -1, 1, 1], [0, 0, -1, 1, 0],
]


def test_tu_signing_is_the_least_tu_signing():
    rng = random.Random(17)
    nets = [BOTTOM_UP]
    while len(nets) < 300:
        net = _random_network_matrix(rng)
        if any(any(r) for r in net):
            nets.append(net)
    for net in nets:
        assert brute_force_tu(net)
        support = Matrix.from_int_rows(Q_FIELD, [[abs(x) for x in r] for r in net])
        got = [[int(x) for x in r] for r in tu_signing(support).entries]
        assert got == _least_rescaling(net), net


def test_tu_signing_matches_brute_force_on_r10():
    r10 = [
        [1, 0, 0, 1, 1], [1, 1, 0, 0, 1], [1, 1, 1, 0, 0], [0, 1, 1, 1, 0], [0, 0, 1, 1, 1],
    ]
    got = [[int(x) for x in r] for r in tu_signing(Matrix.from_int_rows(Q_FIELD, r10)).entries]
    assert brute_force_tu(got)
    assert got == _least_rescaling(got)


def test_is_totally_unimodular_matches_brute_force():
    rng = random.Random(23)
    seen = set()
    for _ in range(400):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(ncols)] for _ in range(nrows)]
        want = brute_force_tu(rows)
        assert Matrix.from_int_rows(Q_FIELD, rows).is_totally_unimodular() == want, rows
        seen.add(want)
    assert seen == {True, False}


def _has_tu_signing_representing(m, basis) -> bool:
    """Brute force: some +-1 signing [I | T] of the support of M's standard
    form on the basis has T TU and M's bases.  The first nonzero of each
    column of T stays +1, since column scaling keeps both properties."""
    sf = m.backend.matrix.standard_form(basis)
    if not sf.nrows:
        return True  # all loops: a zero row represents M
    rest = [j for j in range(sf.ncols) if j not in basis]
    free = [(i, j) for j in rest for i in range(sf.nrows) if sf.entries[i][j]]
    free = [(i, j) for i, j in free if any(sf.entries[h][j] for h in range(i))]
    for signs in product((1, -1), repeat=len(free)):
        rows = [[1 if x else 0 for x in r] for r in sf.entries]
        for (i, j), s in zip(free, signs):
            rows[i][j] = s
        if brute_force_tu([[r[j] for j in rest] for r in rows]) and from_matrix(
                Matrix.from_int_rows(Q_FIELD, rows), m.ground).bases() == m.bases():
            return True
    return False


def _random_column_matroids(rng):
    for _ in range(60):
        nrows, ncols = rng.randint(1, 4), rng.randint(2, 7)
        rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        yield from_matrix(Matrix.from_int_rows(GF2_FIELD, rows))
    for _ in range(60):
        nrows, ncols = rng.randint(1, 3), rng.randint(2, 6)
        entries = (0, 1, -1, 2, Fraction(1, 2))
        rows = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
        yield from_matrix(Matrix(Q_FIELD, [[Fraction(x) for x in r] for r in rows]))


def test_representation_is_refused_exactly_when_not_regular():
    rng = random.Random(29)
    refused = 0
    for m in _random_column_matroids(rng):
        basis = sorted(m.position[e] for e in m.bases()[0])
        regular = _has_tu_signing_representing(m, basis)
        for field in (Q_FIELD, GFp(3)):
            if m.backend.matrix.field == field:
                continue
            try:
                rep = m.representation_over(field)
            except NotRegular:
                assert not regular, m.to_json()
                refused += 1
                continue
            assert regular, m.to_json()
            assert from_matrix(rep, m.ground).bases() == m.bases()
            if field == Q_FIELD:
                assert brute_force_tu([[int(x) for x in r] for r in rep.entries])
    assert refused


FANO = [[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]]


def test_fano_and_u24_are_not_regular():
    fano = from_matrix(Matrix.from_int_rows(GF2_FIELD, FANO))
    assert not _has_tu_signing_representing(fano, [0, 1, 2])
    with pytest.raises(NotRegular):
        fano.representation_over(Q_FIELD)
    u24 = from_matrix(Matrix.from_int_rows(Q_FIELD, [[1, 0, 1, 1], [0, 1, 1, 2]]))
    assert not _has_tu_signing_representing(u24, [0, 1])
    for field in (Q_FIELD, GFp(3)):
        with pytest.raises(NotRegular):
            uniform(2, 4).representation_over(field)
    with pytest.raises(NotRegular):
        u24.representation_over(GFp(3))


def test_raw_matrix_without_tu_signing_still_represents():
    # a parallel pair plus three coloops: regular, though the raw rows'
    # support has no TU signing
    rows = [[0, 1, 1, 1, 1], [0, 0, 0, 0, 1], [1, 1, 1, 1, 0], [1, 1, 0, 1, 1]]
    signed = tu_signing(Matrix.from_int_rows(Q_FIELD, rows))
    assert not signed.is_totally_unimodular()
    m = from_matrix(Matrix.from_int_rows(GF2_FIELD, rows))
    rep = m.representation_over(Q_FIELD)
    assert rep.is_totally_unimodular()
    assert from_matrix(rep, m.ground).bases() == m.bases()
