import json
import time

import pytest

from matroidlab.cli import main
from matroidlab.engine import (
    count_standard_orderings,
    decomposition_check,
    nbc_check,
    standard_ordering,
)
from matroidlab.errors import BadParams, NoCocircuitPair, Overbudget, UnknownName
from matroidlab.families import (
    describe_named,
    list_named,
    named_matroid,
    phi_matroid,
    theta_matroid,
)
from matroidlab.fields import GF2_FIELD, GFp, Q_FIELD
from matroidlab.matroids import from_matrix, parallel_connection, uniform
from matroidlab.polynomials import Monomial
from matroidlab.verify import _compositions

DUAL_K33_L = {
    "1", "x1", "x2", "x3", "x4", "x5",
    "x1^2", "x1 x2", "x1 x4", "x2^2", "x2 x3", "x2 x5",
    "x3 x4", "x3 x5", "x4 x5",
    "x1^2 x2", "x1^2 x4", "x2^2 x3", "x2^2 x5", "x3 x4 x5",
}


def test_theta_labellings():
    m, std = theta_matroid((3,))
    assert std.labels == ("p", "c1e1", "c1e2")
    assert m.rank() == 2 and len(m.ground) == 3

    m, std = theta_matroid((2, 2))
    assert std.labels == ("p", "c1e1", "c2e1")
    assert m.rank() == 1

    # sizes are sorted ascending before labelling
    m, std = theta_matroid((3, 2))
    assert std.labels == ("p", "c1e1", "c2e1", "c2e2")

    m, std = theta_matroid((3, 3))
    assert std.labels == ("p", "c1e1", "c2e1", "c2e2", "c1e2")
    assert std.cobasis == ("p", "c1e1")
    assert m.rank() == 3

    # leftovers of the last component take the top labels descending
    m, std = theta_matroid((2, 2, 4))
    assert std.labels == ("p", "c1e1", "c2e1", "c3e1", "c3e3", "c3e2")


def test_phi_labellings():
    m, std = phi_matroid((3,))
    assert std.labels == ("c1e1", "c1e2", "c1e3")

    m, std = phi_matroid((3, 3))
    assert std.labels == ("p2", "c1e1", "c2e1", "c2e2", "c1e2")

    # composition order is preserved, unlike the sorted single-basepoint family
    m, std = phi_matroid((3, 2))
    assert std.labels == ("p2", "c1e1", "c2e1", "c1e2")

    m, std = phi_matroid((2, 3, 4))
    assert std.labels == ("p3", "p2", "c1e1", "c3e1", "c3e2", "c3e3", "c2e1")
    assert m.rank() == len(m.ground) - 3


@pytest.mark.parametrize("sizes", ((2, 3), (3, 3), (2, 2, 3)))
def test_theta_circuits_match_glued_oracle(sizes):
    m, _ = theta_matroid(sizes)
    ref = None
    for i, s in enumerate(sorted(sizes), start=1):
        comp = uniform(s - 1, s, ["p"] + [f"c{i}e{k}" for k in range(1, s)])
        ref = comp if ref is None else parallel_connection(ref, comp, "p")
    assert set(m.circuits()) == set(ref.circuits())


@pytest.mark.parametrize("sizes", ((2, 3), (3, 3), (3, 2)))
def test_phi_circuits_match_glued_oracle(sizes):
    m, _ = phi_matroid(sizes)
    ref = None
    for i, s in enumerate(sizes, start=1):
        base = ([f"p{i}"] if i > 1 else []) + ([f"p{i + 1}"] if i < len(sizes) else [])
        own = [f"c{i}e{k}" for k in range(1, s + 1 - len(base))]
        comp = uniform(s - 1, s, base + own)
        ref = comp if ref is None else parallel_connection(ref, comp, f"p{i}")
    assert set(m.circuits()) == set(ref.circuits())


@pytest.mark.parametrize("field", (GF2_FIELD, Q_FIELD))
@pytest.mark.parametrize("sizes", ((2, 2), (2, 3), (3, 3), (2, 2, 3), (3, 4)))
def test_theta_orderings_give_bases(sizes, field):
    m, std = theta_matroid(sizes)
    rep = nbc_check(m, std, field)
    assert rep.is_basis, (rep.verdict, rep.reason)


@pytest.mark.parametrize("field", (GF2_FIELD, Q_FIELD))
@pytest.mark.parametrize("sizes", ((2, 2), (3, 3), (3, 2), (2, 3, 3), (4, 3)))
def test_phi_orderings_give_bases(sizes, field):
    m, std = phi_matroid(sizes)
    rep = nbc_check(m, std, field)
    assert rep.is_basis, (rep.verdict, rep.reason)


@pytest.mark.parametrize("build, sizes", (
    (theta_matroid, (7, 7)), (theta_matroid, (5, 5, 5)), (theta_matroid, (6, 6, 6)),
    (phi_matroid, (4, 4, 4)),
))
def test_gf3_verdict_equals_q_verdict(build, sizes):
    # a rational glued instance over gf3 is certified on its standard form,
    # not by a scan of the raw matrix's minors
    verdicts = {}
    for field in (Q_FIELD, GFp(3)):
        m, std = build(sizes)
        start = time.perf_counter()
        rep = nbc_check(m, std, field)
        if field.char == 3:
            assert time.perf_counter() - start < 1.0
        verdicts[field.name] = (rep.verdict, rep.reason)
    assert verdicts["gf3"] == verdicts["q"]


def test_family_decompositions():
    m, std = theta_matroid((3, 3))
    assert decomposition_check(m, std).ok
    m, std = phi_matroid((3, 3))
    assert decomposition_check(m, std).ok
    # the hypothesis pair is not a cocircuit here, so the guard fires
    m, std = theta_matroid((2, 2, 3))
    with pytest.raises(NoCocircuitPair):
        decomposition_check(m, std)


@pytest.mark.parametrize("sizes", ((), (1, 3), (2, 0)))
def test_family_size_validation(sizes):
    with pytest.raises(BadParams):
        theta_matroid(sizes)
    if sizes:
        with pytest.raises(BadParams):
            phi_matroid(sizes)


def test_named_catalog():
    assert list_named() == ("dualk33", "dualk33raw", "k33", "k4", "r10")
    assert "regular" in describe_named("r10")
    with pytest.raises(UnknownName):
        named_matroid("nope")


def test_r10_shape():
    r10 = named_matroid("R10")
    assert len(r10.ground) == 10
    assert r10.rank() == 5
    assert len(r10.bases()) == 162
    assert count_standard_orderings(r10) == 2_332_800


def test_dual_k33_natural_ordering_basis():
    dk = named_matroid("dualk33")
    assert len(dk.ground) == 9 and dk.rank() == 4
    std = standard_ordering(dk, tuple(f"e{i}" for i in range(1, 10)))
    rep = nbc_check(dk, std, GF2_FIELD, method="both")
    assert rep.is_basis
    assert rep.l_size == 20
    got = {Monomial.parse(s) for s in rep.l_monomials}
    assert got == {Monomial.parse(s) for s in DUAL_K33_L}
    assert rep.h.entries == (1, 5, 9, 5, 0)


def test_dual_fixtures_related():
    dk = named_matroid("dualk33")
    raw = named_matroid("dual-k33-raw")
    k33 = named_matroid("k33")
    assert len(raw.ground) == 9 and raw.rank() == 4
    assert k33.rank() == 5
    assert len(k33.bases()) == 81
    assert set(map(frozenset, k33.cocircuits())) == set(map(frozenset, raw.circuits()))
    # same matroid up to a column permutation
    assert sorted(len(c) for c in dk.circuits()) == sorted(len(c) for c in raw.circuits())
    assert len(dk.bases()) == len(raw.bases()) == 81


@pytest.mark.parametrize("build", (theta_matroid, phi_matroid), ids=("theta", "phi"))
def test_seeded_families_match_the_subset_scan(build):
    """Every composition of criterion 5 (parts >= 2, at most 4, sum <= 12),
    which holds the 274 of the glued-check benchmark: the circuits and rank
    seeded from the parts against an unseeded copy of the same matrix."""
    for sizes in _compositions():
        m, std = build(sizes)
        scan = from_matrix(m.backend.matrix, m.ground)
        basis = frozenset(std.basis)
        for e in std.cobasis:
            assert m.fundamental_circuit(basis, e) == scan.fundamental_circuit(basis, e), sizes
        assert "circuits" not in scan._cache
        assert m.circuits() == scan.circuits(), sizes
        assert m.rank() == scan.rank(), sizes


@pytest.mark.parametrize("sizes", ((21,), (11, 11)))
def test_seeding_keeps_the_enumeration_cap(sizes, capsys):
    with pytest.raises(Overbudget):
        theta_matroid(sizes)[0].circuits()
    assert main(["gen", "theta", ",".join(map(str, sizes))]) == 0
    assert json.loads(capsys.readouterr().out)["matroid"]["labels"][0] == "p"
