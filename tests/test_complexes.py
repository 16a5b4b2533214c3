import random

import pytest

from matroidlab import complexes
from matroidlab.complexes import (
    HVector,
    Ordering,
    bc_faces,
    bc_facets,
    broken_circuits,
    f_h_vectors,
    h_recursion_check,
    h_vector,
)
from matroidlab.errors import BadParams, DegenerateElement
from matroidlab.families import named_matroid, phi_matroid, theta_matroid
from matroidlab.fields import GF2_FIELD
from matroidlab.linalg import Matrix
from matroidlab.matroids import from_circuits, from_graph, from_matrix, uniform

TRIANGLE = (("a", "b"), ("b", "c"), ("c", "a"))


def test_ordering_basics():
    o = Ordering(("b", "a", "c"))
    assert o.position("b") == 1 and o.position("c") == 3
    assert len(o) == 3 and list(o) == ["b", "a", "c"]
    assert o.show() == "b,a,c"
    with pytest.raises(BadParams):
        Ordering(("a", "a"))
    with pytest.raises(BadParams):
        o.position("zz")
    with pytest.raises(BadParams):
        o.validate_for(uniform(1, 2))


def test_broken_circuits_drop_minimum():
    m = from_graph(TRIANGLE)
    assert broken_circuits(m, m.ground) == (frozenset({"e2", "e3"}),)
    flipped = broken_circuits(m, ("e3", "e2", "e1"))
    assert flipped == (frozenset({"e1", "e2"}),)


def test_triangle_face_counts():
    m = from_graph(TRIANGLE)
    faces = bc_faces(m, m.ground)
    assert frozenset({"e2", "e3"}) not in faces
    f, h = f_h_vectors(m, m.ground)
    assert f == (1, 3, 2)
    assert h.entries == (1, 1, 0)
    assert bc_facets(m, m.ground) == (
        frozenset({"e1", "e2"}),
        frozenset({"e1", "e3"}),
    )


def test_u24_face_counts():
    m = uniform(2, 4)
    f, h = f_h_vectors(m, m.ground)
    assert f == (1, 4, 3)
    assert h.entries == (1, 2, 0)
    assert h.total == len(bc_facets(m, m.ground)) == 3


def test_free_matroid_is_a_simplex():
    m = uniform(3, 3)
    f, h = f_h_vectors(m, m.ground)
    assert f == (1, 3, 3, 1)
    assert h.entries == (1, 0, 0, 0)


def test_loops_make_the_complex_void():
    m = from_circuits([{"a"}], ("a", "b"))
    assert bc_faces(m, m.ground) == ()
    f, h = f_h_vectors(m, m.ground)
    assert f == (0, 0) and h.entries == (0, 0)


def test_face_counts_are_ordering_invariant():
    m = uniform(2, 4)
    base = f_h_vectors(m, m.ground)
    assert f_h_vectors(m, ("e3", "e1", "e4", "e2")) == base
    assert f_h_vectors(m, ("e4", "e3", "e2", "e1")) == base


def random_binary(seed):
    """Eight distinct nonzero columns of a seeded random 4-row GF(2) matrix."""
    rng = random.Random(f"binary:{seed}")
    cols = rng.sample(range(1, 16), 8)
    rows = [[c >> i & 1 for c in cols] for i in range(4)]
    return from_matrix(Matrix.from_int_rows(GF2_FIELD, rows))


def random_graphic(seed):
    """Nine seeded random edges, parallel ones allowed, on five vertices, no loops."""
    rng = random.Random(f"graphic:{seed}")
    return from_graph([tuple(rng.sample(range(5), 2)) for _ in range(9)])


@pytest.mark.parametrize("m", (
    *(named_matroid(name) for name in ("r10", "dualk33", "k33", "k4")),
    uniform(2, 4),
    theta_matroid((3, 4))[0],
    phi_matroid((3, 3))[0],
    *(random_binary(seed) for seed in (1, 2, 3)),
    *(random_graphic(seed) for seed in (1, 2, 3)),
), ids=(
    "r10", "dualk33", "k33", "k4", "u24", "theta34", "phi33",
    "binary1", "binary2", "binary3", "graphic1", "graphic2", "graphic3",
))
def test_h_vector_does_not_depend_on_the_ordering(m):
    # h_vector caches the h of the first ordering it is asked, a shuffled one
    base = f_h_vectors(m, m.ground)
    rng = random.Random(f"h:{len(m.ground)}:{m.rank()}")
    for _ in range(5):
        labels = list(m.ground)
        rng.shuffle(labels)
        assert f_h_vectors(m, Ordering(labels)) == base, labels
        assert h_vector(m, Ordering(labels)) == base[1], labels


@pytest.mark.parametrize("m", (
    *(named_matroid(name) for name in ("r10", "dualk33", "dualk33raw", "k33", "k4")),
    uniform(2, 4),
    from_circuits([{"a"}], ("a", "b")),
), ids=("r10", "dualk33", "dualk33raw", "k33", "k4", "u24", "loop"))
def test_facets_are_the_faces_of_full_size(m):
    rng = random.Random(f"facets:{m.ground}")
    for _ in range(5):
        labels = list(m.ground)
        rng.shuffle(labels)
        o = Ordering(labels)
        want = tuple(f for f in bc_faces(m, o) if len(f) == m.rank())
        assert bc_facets(m, o) == want, labels
    assert bool(bc_facets(m, m.ground)) == (m.loops() == ())


def test_h_recursion_on_graphs():
    m = from_graph(TRIANGLE + (("c", "d"), ("d", "a")))
    for e in m.ground:
        rep = h_recursion_check(m, m.ground, e)
        assert rep.ok
        assert rep.element == e
        total = [a + b for a, b in zip(
            rep.h_delete.entries + (0,) * 3,
            (0,) + rep.h_contract.entries + (0,) * 3,
        )][: len(rep.h.entries)]
        assert tuple(total) == rep.h.entries


def test_h_recursion_walks_the_faces_of_m_once(monkeypatch):
    # each check walks the faces of M minus e and M/e, and M's own h is cached
    m = named_matroid("k4")
    walks = []
    uncached = complexes.f_h_vectors
    monkeypatch.setattr(complexes, "f_h_vectors", lambda *a: walks.append(a) or uncached(*a))
    reversed_order = Ordering(reversed(m.ground))
    for e in m.ground:
        assert h_recursion_check(m, reversed_order, e).h == uncached(m, m.ground)[1]
    assert len(walks) == 2 * len(m.ground) + 1


def test_h_recursion_rejects_degenerate_elements():
    pendant = from_graph(TRIANGLE + (("c", "d"),))
    with pytest.raises(DegenerateElement):
        h_recursion_check(pendant, pendant.ground, "e4")
    looped = from_circuits([{"a"}, {"b", "c"}], ("a", "b", "c"))
    with pytest.raises(DegenerateElement):
        h_recursion_check(looped, looped.ground, "a")


def test_hvector_helpers():
    h = HVector((1, 2, 1, 0))
    assert h.total == 4
    assert h.show() == "(1, 2, 1, 0)"


def test_k4_face_counts_and_purity():
    m = from_graph(
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    )
    o = Ordering(m.ground)
    f, h = f_h_vectors(m, o)
    assert f == (1, 6, 11, 6)
    assert h.entries == (1, 3, 2, 0)
    facets = bc_facets(m, o)
    assert len(facets) == 6 and all(len(F) == 3 for F in facets)
    faces = bc_faces(m, o)
    assert all(m.is_independent(F) for F in faces)
    # purity: every face extends to a facet
    assert all(any(F >= s for F in facets) for s in faces)
