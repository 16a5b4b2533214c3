import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from matroidlab.errors import (
    BadOverlap,
    BadParams,
    BadRank,
    DegenerateElement,
    NotBasisElement,
    NotCobasisElement,
    NotRegular,
    Overbudget,
)
from matroidlab.families import named_matroid, phi_matroid, theta_matroid
from matroidlab.fields import GF2_FIELD, Q_FIELD, field_from_name
from matroidlab.linalg import Matrix
from matroidlab.matroids import (
    RESIDUE_PRIME as P,
    cocircuits_via_transversals,
    from_circuits,
    from_graph,
    from_matrix,
    matroid_from_json,
    parallel_connection,
    represented_parallel_connection,
    uniform,
)
from matroidlab.verify import family_fixtures, named_fixtures, uniform_fixtures
from test_regularity import columns, minor_rank

TRIANGLE = (("a", "b"), ("b", "c"), ("c", "a"))


def test_uniform_counts():
    m = uniform(2, 4)
    assert m.rank() == 2
    assert len(m.bases()) == 6
    assert {len(c) for c in m.circuits()} == {3}
    assert len(m.circuits()) == 4
    assert {len(c) for c in m.cocircuits()} == {3}
    assert m.loops() == () and m.coloops() == ()


def test_uniform_degenerate_shapes():
    free = uniform(3, 3)
    assert free.circuits() == ()
    assert free.coloops() == ("e1", "e2", "e3")
    rank0 = uniform(0, 2)
    assert rank0.loops() == ("e1", "e2")
    assert rank0.bases() == (frozenset(),)


def test_graphic_triangle_with_pendant():
    m = from_graph(TRIANGLE + (("c", "d"),))
    assert m.rank() == 3
    assert m.circuits() == (frozenset({"e1", "e2", "e3"}),)
    assert m.coloops() == ("e4",)
    assert m.is_independent({"e1", "e2", "e4"})
    assert not m.is_independent({"e1", "e2", "e3"})


def test_rank_and_corank_of_subsets():
    m = from_graph(TRIANGLE)
    assert m.rank({"e1", "e2", "e3"}) == 2
    assert m.rank({"e1"}) == 1
    assert m.is_coindependent({"e1"})
    assert not m.is_coindependent({"e1", "e2"})


def test_labels_outside_the_ground_set_are_refused():
    m = named_matroid("k4")
    for query in (m.rank, m.is_coindependent, m.is_independent, m.delete, m.contract):
        for subset in (["zz"], [m.ground[0], "zz"]):
            with pytest.raises(BadParams, match=r"\['zz'\] not in ground set"):
                query(subset)
    assert m.rank([]) == 0 and m.is_coindependent([])


def test_from_circuits_matches_graphic():
    g = from_graph(TRIANGLE)
    c = from_circuits([{"e1", "e2", "e3"}], ("e1", "e2", "e3"))
    assert g.bases() == c.bases()
    assert g.cocircuits() == c.cocircuits()


def test_fundamental_circuit_and_cocircuit():
    m = uniform(2, 3)
    b = {"e2", "e3"}
    assert m.fundamental_circuit(b, "e1") == {"e1", "e2", "e3"}
    assert m.fundamental_cocircuit(b, "e2") == {"e1", "e2"}
    with pytest.raises(NotCobasisElement):
        m.fundamental_circuit(b, "e2")
    with pytest.raises(NotBasisElement):
        m.fundamental_cocircuit(b, "e1")
    with pytest.raises(BadRank):
        m.fundamental_circuit({"e1"}, "e2")


def _cocircuit_by_coindependence(m, basis, b):
    """C*(B, b) from the dual side: starting from (E - B) + b, drop each
    element of E - B, in ground order, whose removal leaves a codependent set."""
    outside = [e for e in m.ground if e not in basis]
    s = set(outside) | {b}
    for x in outside:
        if not m.is_coindependent(s - {x}):
            s -= {x}
    return frozenset(s)


def test_fundamental_cocircuit_matches_the_coindependence_scan():
    # fundamental_cocircuit reads C*(B, b) off fundamental circuits; the scan
    # asks the coindependence oracle instead and shares no step with it
    glued = parallel_connection(
        from_graph(TRIANGLE, labels=("l1", "l2", "p")),
        from_graph(TRIANGLE, labels=("p", "r1", "r2")),
        "p",
    )
    # e1 is a loop, e5 a coloop, e2 e3 e4 a triangle
    rows = [[0, 1, 0, 1, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]]
    loop_coloop = from_matrix(Matrix.from_int_rows(Q_FIELD, rows))
    fixtures = [named_matroid(n) for n in ("k4", "k33", "dualk33", "dualk33raw", "r10")]
    fixtures += [uniform(2, 4), uniform(3, 5), glued, loop_coloop]
    pairs = 0
    for m in fixtures:
        for basis in m.bases():
            for b in sorted(basis, key=m.position.get):
                assert m.fundamental_cocircuit(basis, b) == _cocircuit_by_coindependence(m, basis, b)
                pairs += 1
    assert pairs == 1986


def test_delete_and_contract():
    m = from_graph(TRIANGLE)
    d = m.delete(["e3"])
    assert d.ground == ("e1", "e2")
    assert d.rank() == 2 and d.circuits() == ()
    c = m.contract(["e1"])
    assert c.ground == ("e2", "e3")
    assert c.rank() == 1
    assert c.circuits() == (frozenset({"e2", "e3"}),)
    # deletion and contraction of disjoint sets commute
    g = from_graph(TRIANGLE + (("c", "d"), ("d", "a")))
    a = g.delete(["e2"]).contract(["e4"])
    b = g.contract(["e4"]).delete(["e2"])
    assert a.ground == b.ground and a.bases() == b.bases()


def _minor_by_definition(m, t, contract):
    """(ground, rank, bases, circuits) of M/T or M minus T from M's oracle:
    I is independent in M minus T iff it avoids T and is independent in M,
    and in M/T iff it avoids T and I + B_T is independent in M, where B_T
    is a maximal independent subset of T."""
    rest = tuple(e for e in m.ground if e not in t)
    b_t = frozenset()
    for e in sorted(t):
        if contract and m.is_independent(b_t | {e}):
            b_t |= {e}
    indep = {
        frozenset(s): m.is_independent(frozenset(s) | b_t)
        for k in range(len(rest) + 1) for s in combinations(rest, k)
    }
    rank = max(len(s) for s, ok in indep.items() if ok)
    bases = tuple(frozenset(s) for s in combinations(rest, rank) if indep[frozenset(s)])
    circuits = {s for s, ok in indep.items() if not ok and all(indep[s - {x}] for x in s)}
    return rest, rank, bases, circuits


def test_minors_match_their_definitions():
    # every one- and two-element set of each fixture, and its first and last
    # three elements, some of them dependent or holding a loop
    fixtures = [m for _, m in uniform_fixtures() + named_fixtures()]
    fixtures += [m for _, m, _ in family_fixtures()]
    fixtures += [uniform(0, 2), uniform(0, 0), from_graph(TRIANGLE + (("d", "d"),))]
    cases = 0
    for m in fixtures:
        sets = {s for k in (1, 2) for s in combinations(m.ground, k)}
        sets |= {m.ground[:3], m.ground[-3:]} if len(m.ground) >= 3 else set()
        for t in sorted(sets, key=lambda s: (len(s), s)):
            for contract in (False, True):
                minor = m.contract(t) if contract else m.delete(t)
                rest, rank, bases, circuits = _minor_by_definition(m, frozenset(t), contract)
                assert minor.ground == rest, t
                assert (minor.rank(), minor.bases()) == (rank, bases), (m, t, contract)
                assert minor.circuits() == tuple(sorted(circuits, key=minor._circuit_key)), (m, t, contract)
            cases += 1
    assert cases == 353 + 34  # one- and two-element sets, then three-element ones


def test_representation_over_q_matches_oracle():
    m = from_graph(TRIANGLE + (("c", "d"),))
    rep = m.representation_over(Q_FIELD)
    assert rep.is_totally_unimodular()
    col = from_matrix(rep)
    assert col.bases() == tuple(
        frozenset(b) for b in combinations(m.ground, m.rank())
        if m.is_independent(b)
    )


def test_representation_rejects_non_regular():
    m = uniform(2, 4)
    with pytest.raises(NotRegular):
        m.representation_over(Q_FIELD)
    with pytest.raises(NotRegular):
        m.representation_over(GF2_FIELD)


def test_json_roundtrip():
    fixtures = (
        uniform(2, 4),
        from_graph(TRIANGLE),
        from_matrix(Matrix.from_int_rows(GF2_FIELD, [[1, 0, 1], [0, 1, 1]])),
        from_circuits([{"a", "b"}], ("a", "b", "c")),
    )
    for m in fixtures:
        again = matroid_from_json(m.to_json())
        assert again.ground == m.ground
        assert again.bases() == m.bases()


def test_parallel_connection_circuits():
    left = from_graph(TRIANGLE, labels=("l1", "l2", "p"))
    right = from_graph(TRIANGLE, labels=("p", "r1", "r2"))
    pc = parallel_connection(left, right, "p")
    assert len(pc.ground) == 5
    assert pc.rank() == 3
    merged = frozenset({"l1", "l2", "r1", "r2"})
    assert merged in pc.circuits()
    assert len(pc.circuits()) == 3


def test_parallel_connection_errors():
    a = uniform(1, 2, labels=("p", "a2"))
    b = uniform(1, 2, labels=("q", "b2"))
    with pytest.raises(BadOverlap):
        parallel_connection(a, b, "p")
    looped = from_circuits([{"p"}], ("p", "z"))
    shared = uniform(1, 2, labels=("p", "w"))
    with pytest.raises(DegenerateElement):
        parallel_connection(looped, shared, "p")


def test_represented_parallel_connection_agrees():
    left = from_matrix(uniform(2, 3, labels=("a1", "a2", "p")).representation_over(Q_FIELD))
    right = from_matrix(uniform(1, 2, labels=("p", "b1")).representation_over(Q_FIELD))
    glued = represented_parallel_connection(left, right, "p")
    oracle = parallel_connection(left, right, "p")
    assert glued.ground == oracle.ground
    assert set(glued.circuits()) == set(oracle.circuits())


def test_pivot_rows_are_pinned():
    # one Gauss-Jordan step on the first row with a nonzero in p's column:
    # it is scaled by 1/2, and twice it is taken from the last row
    m = from_matrix(Matrix.from_int_rows(Q_FIELD, [[0, 5, 7], [2, 1, 0], [4, 3, 1]]), ["p", "a", "b"])
    n = from_matrix(Matrix.from_int_rows(Q_FIELD, [[3, 1]]), ["p", "c"])
    glued = represented_parallel_connection(m, n, "p")
    third = Fraction(1, 3)
    assert glued.backend.matrix.entries == ((1, Fraction(1, 2), 0, third), (0, 5, 7, 0), (0, 1, 1, 0))


def test_cocircuit_transversal_oracle():
    for m in (uniform(2, 4), from_graph(TRIANGLE + (("c", "d"),))):
        assert set(m.cocircuits()) == set(cocircuits_via_transversals(m))


def minimal_scan(m, indep, size_limit) -> tuple:
    """Minimal dependent sets under the oracle `indep`, found by testing every
    subset up to size_limit elements by increasing size, in _circuit_key order."""
    found = []
    for k in range(1, size_limit + 1):
        for c in combinations(m.ground, k):
            s = frozenset(c)
            if not any(f <= s for f in found) and not indep(s):
                found.append(s)
    return tuple(sorted(found, key=m._circuit_key))


def _scan_corpus():
    """Every uniform and named fixture, U(0,0), U(0,2), theta and phi up to
    sum 9 rebuilt from JSON (so their circuits are not seeded), circuit-
    defined minors and a parallel connection, a graph and a column matroid
    with loops, and 150 seeded matrices each over gf2, gf3 and q."""
    out = [m for _, m in uniform_fixtures() + named_fixtures()]
    out += [uniform(0, 0), uniform(0, 2)]
    for k in range(1, 5):
        for sizes in product(range(2, 10), repeat=k):
            if sum(sizes) <= 9:
                out += [matroid_from_json(build(sizes)[0].to_json()) for build in (theta_matroid, phi_matroid)]
    k4 = named_matroid("k4")
    out += [k4.delete(["e1"]), k4.contract(["e1"])]
    out.append(parallel_connection(
        from_graph(TRIANGLE, labels=("l1", "l2", "p")), from_graph(TRIANGLE, labels=("p", "r1", "r2")), "p"
    ))
    # a loop, two parallel pairs and a pendant edge; a zero column and a coloop
    out.append(from_graph(TRIANGLE + (("a", "a"), ("a", "b"), ("b", "c"), ("c", "d"))))
    out.append(from_matrix(Matrix.from_int_rows(Q_FIELD, [[0, 1, 1, 0, 1], [0, 0, 0, 1, 0], [0, 1, 1, 0, 1]])))
    # U(2,4) over gf3, which no binary matrix represents
    out.append(from_matrix(Matrix.from_int_rows(field_from_name("gf3"), [[1, 0, 1, 1], [0, 1, 1, 2]])))
    rng = random.Random("circuits off the bases")
    for name, values in (("gf2", (0, 1)), ("gf3", (0, 1, 2)), ("q", (0, 1, -1))):
        field = field_from_name(name)
        for _ in range(150):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 8)
            rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
            out.append(from_matrix(Matrix.from_int_rows(field, rows)))
    return out


def test_circuits_and_cocircuits_match_the_subset_scan():
    # circuits() and cocircuits() read the fundamental (co)circuits off the
    # bases; the scan tests every small subset and shares only the oracle
    corpus = _scan_corpus()
    kinds = {m.backend.kind for m in corpus}
    assert kinds == {"uniform", "column", "graphic", "circuits"} and len(corpus) == 576
    for m in corpus:
        n, r = len(m.ground), m.rank()
        assert m.circuits() == minimal_scan(m, m.is_independent, r + 1), m.to_json()
        assert m.cocircuits() == minimal_scan(m, m.is_coindependent, n - r + 1), m.to_json()


def test_unseeded_circuits_need_few_queries():
    # theta (6,6,6) read from JSON has no seeded circuits; the subset scan
    # asked the backend 62,472 times for them
    seeded = theta_matroid((6, 6, 6))[0]
    m = matroid_from_json(seeded.to_json())
    queries = []
    indep = m.backend.indep
    m.backend.indep = lambda s: queries.append(s) or indep(s)
    assert m.circuits() == seeded.circuits()
    assert len(queries) <= 2000


def circuit_axioms_ok(circuits) -> bool:
    """(i) nonempty, (ii) antichain, (iii) elimination axiom."""
    circs = [frozenset(c) for c in circuits]
    if any(not c for c in circs):
        return False
    for a, b in combinations(circs, 2):
        if a <= b or b <= a:
            return False
    for a, b in combinations(circs, 2):
        for e in a & b:
            u = (a | b) - {e}
            if not any(c <= u for c in circs):
                return False
    return True


def test_circuit_axioms():
    parallel = [frozenset(p) for p in (("a", "b"), ("b", "c"), ("a", "c"))]
    assert circuit_axioms_ok(parallel)
    # {a,b} and {b,c} alone fail elimination: {a,c} contains no member
    assert not circuit_axioms_ok(parallel[:2])
    assert not circuit_axioms_ok([frozenset({"a"}), frozenset({"a", "b"})])


def test_enumeration_guard():
    m = uniform(2, 21)
    with pytest.raises(Overbudget):
        m.circuits()
    with pytest.raises(BadParams):
        m.is_independent({"zz"})


def assert_oracle_is_exact_rank(m):
    """is_independent against the brute-force rank of the columns, on every column subset."""
    mat = m.backend.matrix
    n = len(m.ground)
    for k in range(n + 1):
        for cols in combinations(range(n), k):
            want = minor_rank(mat.field, columns(mat, cols).entries) == k
            assert m.is_independent([m.ground[j] for j in cols]) == want, cols


def test_multiples_of_the_residue_prime_are_not_zero():
    # e1 is zero mod P, and det(e1, e2) = det(e2, e3) = P: all three pairs
    # are dependent mod P and independent over Q
    m = from_matrix(Matrix.from_int_rows(Q_FIELD, [[P, 1, 1], [0, 1, 1 + P]]))
    assert m.is_independent(["e1"])
    assert m.is_independent(["e1", "e2"]) and m.is_independent(["e2", "e3"])
    assert m.circuits() == (frozenset({"e1", "e2", "e3"}),)
    assert_oracle_is_exact_rank(m)


def test_denominator_of_the_residue_prime_takes_the_exact_path():
    # e1 has no residue mod P and e4 is parallel to it over Q; subsets
    # without e1 take the residue test, subsets with it the exact one
    m = from_matrix(Matrix(Q_FIELD, [
        [Fraction(1, P), Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(0), Fraction(2), Fraction(2), Fraction(0)],
    ]))
    assert m.is_independent(["e2", "e3"]) and m.is_independent(["e3", "e4"])
    assert m.is_independent(["e1", "e2"])
    assert not m.is_independent(["e1", "e4"])
    assert not m.is_independent(["e1", "e2", "e3"])
    assert_oracle_is_exact_rank(m)


Q_ENTRIES = (0, 0, 1, -1, 2, P, -P, 2 * P, Fraction(1, 2), Fraction(P, 3))


@pytest.mark.parametrize("field_name", ("q", "gf2", "gf3"))
def test_oracle_is_exact_rank_on_random_matrices(field_name):
    field = field_from_name(field_name)
    rng = random.Random(f"oracle:{field_name}")
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        if field_name == "q":
            entries = [[Fraction(rng.choice(Q_ENTRIES)) for _ in range(cols)] for _ in range(rows)]
            m = from_matrix(Matrix(Q_FIELD, entries))
        else:
            entries = [[rng.randrange(field.char) for _ in range(cols)] for _ in range(rows)]
            m = from_matrix(Matrix.from_int_rows(field, entries))
        assert_oracle_is_exact_rank(m)


def signed_incidence(edges):
    verts = sorted({v for e in edges for v in e})
    rows = [[0] * len(edges) for _ in verts]
    for j, (u, v) in enumerate(edges):
        if u != v:
            rows[verts.index(u)][j] = 1
            rows[verts.index(v)][j] = -1
    return Matrix.from_int_rows(Q_FIELD, rows)


def test_graph_circuits_equal_incidence_matrix_circuits():
    rng = random.Random("graphs")
    for _ in range(30):
        nverts = rng.randint(2, 5)
        edges = [
            (rng.randrange(nverts), rng.randrange(nverts)) for _ in range(rng.randint(1, 8))
        ]
        graphic = from_graph(edges)
        column = from_matrix(signed_incidence(edges))
        assert graphic.circuits() == column.circuits(), edges


@pytest.mark.parametrize("name", ("r10", "dualk33", "k33", "k4", "u24"))
def test_fundamental_circuits_from_the_circuit_cache(name):
    build = (lambda: uniform(2, 4)) if name == "u24" else (lambda: named_matroid(name))
    cached, oracle = build(), build()
    cached.circuits()
    for basis in oracle.bases():
        for e in oracle.ground:
            if e not in basis:
                assert cached.fundamental_circuit(basis, e) == oracle.fundamental_circuit(basis, e)
    assert "circuits" not in oracle._cache


def test_seeded_parallel_connection_keeps_unknown_circuits_unknown():
    left = from_matrix(uniform(2, 3, labels=("a1", "a2", "p")).representation_over(Q_FIELD))
    right = from_matrix(uniform(1, 2, labels=("p", "b1")).representation_over(Q_FIELD))
    glued = represented_parallel_connection(left, right, "p")
    assert "circuits" not in glued._cache
    assert glued.rank() == from_matrix(glued.backend.matrix, glued.ground).rank() == 2
