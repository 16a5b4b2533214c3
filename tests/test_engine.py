import json
import os
import random
from itertools import permutations, product

import pytest

from matroidlab import engine, matroids
from matroidlab.complexes import HVector, bc_facets
from matroidlab.engine import (
    candidate_monomials,
    count_standard_orderings,
    decomposition_check,
    dj_values,
    lsop,
    nbc_check,
    order_ideals,
    search_orderings,
    standard_ordering,
    standard_ordering_at,
)
from matroidlab.errors import (
    BadParams,
    NoCocircuitPair,
    NotStandardOrdering,
)
from matroidlab.families import named_matroid, phi_matroid, theta_matroid
from matroidlab.fields import GF2_FIELD, Q_FIELD, field_from_name
from matroidlab.incidence import basis_is_nonsingular, fundamental_matrices, fundamental_rows
from matroidlab.linalg import Matrix
from matroidlab.matroids import from_graph, uniform
from matroidlab.polynomials import Monomial, Polynomial, order_key
from test_complexes import random_binary, random_graphic


def test_u23_pipeline_over_q():
    m = uniform(2, 3)
    std = standard_ordering(m, ("e1", "e2", "e3"))
    assert std.cobasis == ("e1",)
    assert std.basis == ("e2", "e3")

    th = lsop(m, std, Q_FIELD)
    assert sorted(p.show() for p in th.forms) == ["-x1 + x2", "x1 + x3"]
    assert th.valid is True
    assert len(th.generators) == 1
    circuit, p = th.generators[0]
    assert circuit == frozenset({"e1", "e2", "e3"})
    assert p.show() == "-x1^2"
    # the candidate monomial shows up as a term of its circuit generator
    assert Monomial.parse("x1^2") in p.terms

    assert dj_values(m, std) == (1, 1, 1)
    candidates = candidate_monomials(m, std)
    assert candidates[0][1].show() == "x1^2"
    upper, lower = order_ideals(m, std)
    assert sorted(x.show() for x in lower) == ["1", "x1"]

    rep = nbc_check(m, std, Q_FIELD, method="both")
    assert rep.is_basis
    assert rep.quotient_dim == 2
    assert rep.h.entries == (1, 1, 0)


@pytest.mark.parametrize("name", ("gf2", "gf3", "q"))
def test_substitution_negates_the_cobasis_of_each_cocircuit_row(name):
    # lsop stores each fundamental cocircuit row once, as the substitution of
    # its basis variable; the dense matrix of fundamental_matrices is the
    # other reading of the same rows, and forms is row j as a linear form
    field = field_from_name(name)
    z = field.zero()
    instances = [uniform(2, 3), uniform(3, 3)] + [named_matroid(n) for n in ("k4", "dualk33")]
    instances += [theta_matroid((2, 3))[0], phi_matroid((2, 2, 2))[0]]
    for m in instances:
        for std in _seeded_orderings(m, 3):
            th = lsop(m, std, field, validate=False)
            rows = fundamental_matrices(m, std.labels, field).cocircuit_matrix.entries
            t, n = len(std.cobasis), len(std.labels)
            assert sorted(th.substitution) == list(range(t + 1, n + 1))
            for j, row in zip(range(t + 1, n + 1), rows):
                want = Polynomial(field, t, {
                    Monomial.variable(i): field.neg(row[i - 1]) for i in range(1, t + 1)
                })
                assert th.substitution[j] == want, (std, j)
                form = Polynomial(field, n, {
                    Monomial.variable(i): c for i, c in enumerate(row, 1) if c != z
                })
                assert th.forms[j - t - 1] == form, (std, j)


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("field", (GF2_FIELD, Q_FIELD))
def test_circuit_uniform_power_ladder(n, field):
    m = uniform(n - 1, n)
    std = standard_ordering(m, tuple(f"e{i + 1}" for i in range(n)))
    rep = nbc_check(m, std, field)
    assert rep.is_basis
    ladder = {Monomial.one()} | {Monomial.variable(1, k) for k in range(1, n - 1)}
    assert {Monomial.parse(s) for s in rep.l_monomials} == ladder


def test_u24_facet_rank_failure():
    m = uniform(2, 4)
    std = standard_ordering(m, ("e1", "e2", "e3", "e4"))
    rep = nbc_check(m, std, GF2_FIELD)
    assert rep.verdict == "not_basis"
    assert rep.reason == "lsop_invalid"
    assert rep.cardinality_ok
    assert rep.lsop_valid is False
    th = lsop(m, std, GF2_FIELD)
    assert th.valid is False
    assert th.invalid_facet == frozenset({"e1", "e2"})
    assert rep.witness == "{e1,e2}"


def test_u34_basis_over_q():
    m = uniform(3, 4)
    std = standard_ordering(m, ("e1", "e2", "e3", "e4"))
    rep = nbc_check(m, std, Q_FIELD, method="both")
    assert rep.is_basis
    assert rep.h.entries == (1, 1, 1, 0)


def test_triangle_graph_matches_uniform():
    tri = from_graph([("a", "b"), ("b", "c"), ("c", "a")])
    std = standard_ordering(tri, ("e1", "e2", "e3"))
    assert nbc_check(tri, std, Q_FIELD).is_basis


def test_bad_method_name_rejected():
    m = uniform(2, 3)
    std = standard_ordering(m, ("e1", "e2", "e3"))
    with pytest.raises(BadParams):
        nbc_check(m, std, Q_FIELD, method="guess")


def test_decomposition_u23():
    m = uniform(2, 3)
    std = standard_ordering(m, ("e1", "e2", "e3"))
    dec = decomposition_check(m, std)
    assert dec.ok
    assert dec.pair == ("e1", "e3")


def test_decomposition_cycle_everywhere():
    # any two edges of a cycle form a minimal cut, so the two-element
    # cocircuit hypothesis holds for every standard ordering
    c4 = from_graph([("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")])
    for k in range(count_standard_orderings(c4)):
        assert decomposition_check(c4, standard_ordering_at(c4, k)).ok


def test_decomposition_guard_on_k4():
    # K4 has no 2-element cocircuit: vertex stars have 3 edges and the
    # balanced cuts have 4, so the guard must fire
    k4 = from_graph(
        [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")]
    )
    for k in range(0, count_standard_orderings(k4), 97):
        with pytest.raises(NoCocircuitPair):
            decomposition_check(k4, standard_ordering_at(k4, k))


def test_ordering_enumeration_bijective():
    m = uniform(2, 3)
    assert count_standard_orderings(m) == 6
    seen = set()
    for k in range(6):
        seen.add(standard_ordering_at(m, k).labels)
    assert len(seen) == 6
    assert standard_ordering_at(m, 0).labels == ("e3", "e1", "e2")
    with pytest.raises(BadParams):
        standard_ordering_at(m, 6)


def test_standard_ordering_tail_guard():
    pend = from_graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    with pytest.raises(NotStandardOrdering):
        standard_ordering(pend, ("e4", "e1", "e2", "e3"))
    std = standard_ordering(pend, ("e3", "e1", "e2", "e4"))
    assert std.basis == ("e1", "e2", "e4")


def test_search_exhaustive_u23():
    m = uniform(2, 3)
    rep = search_orderings(m, Q_FIELD, policy="exhaustive", workers=1)
    assert rep.completed
    assert rep.checked == 6
    assert rep.tallies["basis"] == 6


def test_search_exhaustive_u24_and_worker_invariance():
    m = uniform(2, 4)
    rep1 = search_orderings(m, GF2_FIELD, policy="exhaustive", workers=1)
    assert rep1.completed
    assert rep1.checked == 24
    assert rep1.tallies["basis"] == 0
    assert rep1.tallies["lsop_invalid"] == 24
    rep2 = search_orderings(m, GF2_FIELD, policy="exhaustive", workers=2)
    assert rep2.tallies == rep1.tallies
    assert rep2.basis_indices == rep1.basis_indices


def test_search_first_hit():
    m = uniform(2, 3)
    rep = search_orderings(m, Q_FIELD, policy="first-hit", workers=1)
    assert rep.completed
    assert rep.first_basis == {"index": 0, "ordering": ["e3", "e1", "e2"]}


def test_search_sample_policy_deterministic():
    m = uniform(2, 4)
    rep1 = search_orderings(m, GF2_FIELD, policy="sample:10:7", workers=1)
    rep2 = search_orderings(m, GF2_FIELD, policy="sample:10:7", workers=2)
    assert rep1.domain == 10
    assert rep1.tallies == rep2.tallies


def test_search_shards_merge_to_full_run():
    m = uniform(2, 4)
    whole = search_orderings(m, GF2_FIELD, policy="exhaustive", workers=1)
    merged = {k: 0 for k in whole.tallies}
    checked = 0
    for i in range(3):
        part = search_orderings(
            m, GF2_FIELD, policy="exhaustive", workers=1, shard=f"{i}/3"
        )
        checked += part.checked
        for k, v in part.tallies.items():
            merged[k] += v
    assert checked == whole.checked
    assert merged == whole.tallies


@pytest.mark.parametrize("shard", ("5", "1/2/3", "3/3", "-1/3", "0/0", "x/2"))
def test_search_shard_validation(shard):
    m = uniform(2, 3)
    with pytest.raises(BadParams):
        search_orderings(m, Q_FIELD, shard=shard)


@pytest.mark.parametrize("name,field,policy,shard", (
    ("k4", GF2_FIELD, "first-hit", None),
    ("k4", GF2_FIELD, "first-hit", "1/3"),
    ("k4", GF2_FIELD, "sample:120:5", None),
    ("k4", GF2_FIELD, "sample:120:5", "0/2"),
    ("k4", GF2_FIELD, "exhaustive", "2/5"),
    ("dualk33", Q_FIELD, "first-hit", None),
    ("dualk33", Q_FIELD, "sample:120:5", "1/2"),
))
def test_search_reports_do_not_depend_on_workers(name, field, policy, shard, monkeypatch):
    # small chunks put a first hit in the middle of a chunk: the cursor must
    # stop at the hit, not at the end of the chunk that holds it
    monkeypatch.setattr(engine, "CHUNK_SIZE", 50)
    m = named_matroid(name)
    reports = [
        search_orderings(m, field, policy=policy, workers=w, shard=shard)
        for w in (1, 2)
    ]
    assert reports[0] == reports[1]
    rep = reports[0]
    assert sum(rep.tallies.values()) == rep.checked


def test_gf2_check_needs_no_tu_test(monkeypatch):
    # over gf2 the linear system of a rational column matroid is read off
    # the independence oracle, so neither the TU test nor the signing that
    # a representation over another field needs is reached
    def refuse(*args, **kwargs):
        raise AssertionError("TU test or signing called")

    monkeypatch.setattr(Matrix, "is_totally_unimodular", refuse)
    monkeypatch.setattr(matroids, "tu_signing", refuse)
    m, std = theta_matroid((3, 4))
    rep = nbc_check(m, std, GF2_FIELD, method="both")
    assert rep.is_basis


def test_checkpoint_roundtrip(tmp_path):
    m = uniform(2, 4)
    path = os.fspath(tmp_path / "state.json")
    first = search_orderings(
        m, GF2_FIELD, policy="exhaustive", workers=1,
        checkpoint_path=path, checkpoint_every=5,
    )
    assert os.path.exists(path)
    again = search_orderings(
        m, GF2_FIELD, policy="exhaustive", workers=1, checkpoint_path=path,
    )
    assert again.checked == 24
    assert again.tallies == first.tallies
    with pytest.raises(BadParams):
        search_orderings(m, Q_FIELD, policy="exhaustive", checkpoint_path=path)


def _run_keeping_checkpoints(monkeypatch, m, policy, workers, path):
    """The uninterrupted report, and the text of every checkpoint written
    along the way."""
    saved = []
    save = engine._save_checkpoint

    def keep(*args):
        save(*args)
        with open(args[0]) as fh:
            saved.append(fh.read())

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_save_checkpoint", keep)
        full = search_orderings(
            m, GF2_FIELD, policy=policy, workers=workers,
            checkpoint_path=path, checkpoint_every=40,
        )
    return full, saved


def test_resume_across_worker_counts(tmp_path, monkeypatch):
    # a checkpoint taken mid-run by one worker count is resumed by the other;
    # the one taken must already hold a basis, so first_basis carries over
    m = named_matroid("dualk33")
    policy = "sample:200:3"
    reports = {}
    for before, after in ((1, 2), (2, 1)):
        full, saved = _run_keeping_checkpoints(
            monkeypatch, m, policy, before, os.fspath(tmp_path / f"full{before}.json"))
        reports[before] = full
        mid = next(
            text for text in saved
            if json.loads(text)["tallies"]["basis"] and json.loads(text)["cursor"] < full.checked
        )
        path = tmp_path / f"resume{before}.json"
        path.write_text(mid)
        resumed = search_orderings(
            m, GF2_FIELD, policy=policy, workers=after, checkpoint_path=os.fspath(path),
        )
        for field in ("checked", "tallies", "basis_indices", "first_basis", "completed"):
            assert getattr(resumed, field) == getattr(full, field), (before, after, field)
    assert reports[1] == reports[2]


def test_worker_builds_the_matroid_once(monkeypatch):
    calls = []
    build = engine.matroid_from_json

    def counting(data):
        calls.append(data)
        return build(data)

    monkeypatch.setattr(engine, "matroid_from_json", counting)
    monkeypatch.setattr(engine, "_WORKER", None)
    m = named_matroid("k4")
    engine._init_worker(m.to_json(), "gf2")
    first = engine._search_chunk([0, 1, 2])
    second = engine._search_chunk([3, 4])
    assert len(calls) == 1
    assert first + second == [engine._check_one(m, k, GF2_FIELD) for k in range(5)]


def _small_fixtures():
    yield from (named_matroid(name) for name in ("r10", "dualk33", "k33", "k4"))
    yield uniform(2, 4)
    yield theta_matroid((3, 4))[0]
    yield phi_matroid((3, 3))[0]


def _seeded_orderings(m, count):
    total = count_standard_orderings(m)
    rng = random.Random(total)
    return [standard_ordering_at(m, k) for k in rng.sample(range(total), min(count, total))]


def test_order_ideals_match_brute_force():
    # the reference shares no code with the walk: every point of an exponent
    # box that no candidate divides, the box reaching past every candidate
    for matroid in _small_fixtures():
        for std in _seeded_orderings(matroid, 5):
            t = len(std.labels) - std.rank
            cands = [m for _, m in candidate_monomials(matroid, std)]
            dense = [tuple(c.exponent(v) for v in range(1, t + 1)) for c in cands]
            top = max(c.degree() for c in cands)
            want = {
                Monomial(e)
                for e in product(range(top + 1), repeat=t)
                if not any(all(x <= y for x, y in zip(c, e)) for c in dense)
            }
            upper, lower = order_ideals(matroid, std)
            assert lower == want, std
            assert upper == {c for c in cands if not any(o != c and o.divides(c) for o in cands)}, std


def test_include_monomials_only_adds_the_list():
    # U(2,4) gives lsop_invalid, r10 wrong_cardinality, and a sample of
    # dualk33 over q every verdict kind
    cases = (
        (uniform(2, 4), GF2_FIELD, 2), (named_matroid("r10"), GF2_FIELD, 2),
        (named_matroid("dualk33"), Q_FIELD, 60),
    )
    reasons = set()
    for m, field, count in cases:
        for std in _seeded_orderings(m, count):
            full = nbc_check(m, std, field, include_monomials=True)
            bare = nbc_check(m, std, field, include_monomials=False)
            assert bare == full._replace(l_monomials=())
            mons = [Monomial.parse(s) for s in full.l_monomials]
            assert len(mons) == full.l_size
            assert mons == sorted(mons, key=order_key("grlex", len(std.cobasis)))
            reasons.add(full.reason)
    assert reasons == {"", "wrong_cardinality", "lsop_invalid", "not_independent"}


@pytest.mark.parametrize("m,field", (
    *(pytest.param(named_matroid(name), F, id=f"{name}-{F.name}")
      for name in ("k4", "k33", "dualk33") for F in (GF2_FIELD, Q_FIELD)),
    *(pytest.param(random_graphic(seed), F, id=f"graphic{seed}-{F.name}")
      for seed in (1, 2, 3) for F in (GF2_FIELD, Q_FIELD)),
    # a binary matroid that is not regular has no representation over q
    *(pytest.param(random_binary(seed), GF2_FIELD, id=f"binary{seed}-gf2") for seed in (1, 2, 3)),
))
def test_macaulay_and_groebner_agree_on_matroid_quotients(m, field):
    rng = random.Random(f"oracle:{sorted(map(sorted, m.circuits()))}:{field.name}")
    total = count_standard_orderings(m)
    verdicts = []
    for _ in range(400):
        std = standard_ordering_at(m, rng.randrange(total))
        mac = nbc_check(m, std, field, method="macaulay")
        if not mac.cardinality_ok:
            continue
        # "both" raises if the Buchberger normal forms disagree with Macaulay
        assert nbc_check(m, std, field, method="both").verdict == mac.verdict
        verdicts.append(mac.reason or "basis")
        if len(verdicts) == 5:
            break
    assert len(verdicts) == 5, verdicts


@pytest.mark.parametrize("name", ("gf3", "gf5", "q"))
def test_lsop_valid_without_facet_walk_agrees_with_it(name):
    # over a field of characteristic other than 2 lsop does not walk the
    # facets: its rows represent M, so every facet, a basis, is nonsingular;
    # this walks them against the same rows
    field = field_from_name(name)
    instances = [named_matroid(n) for n in ("r10", "dualk33", "dualk33raw", "k33", "k4")]
    instances += [build(sizes)[0] for build in (theta_matroid, phi_matroid)
                  for sizes in ((2, 3), (3, 3), (2, 2, 2))]
    for m in instances:
        for std in _seeded_orderings(m, 3):
            th = lsop(m, std, field)
            assert th.valid is True and th.invalid_facet is None, std
            rows = fundamental_rows(m, std.basis, field)
            for facet in bc_facets(m, std.ordering):
                assert basis_is_nonsingular(rows, facet, field), (std, facet)


def _automorphisms_by_brute_force(m):
    circuits = set(m.circuits())
    out = []
    for image in permutations(m.ground):
        sigma = dict(zip(m.ground, image))
        if all(frozenset(sigma[e] for e in c) in circuits for c in circuits):
            out.append(sigma)
    return out


def _k33_automorphisms(m):
    # the edge permutations induced by the 72 automorphisms of K_{3,3}
    ends = {frozenset(edge): lab for edge, lab in zip(m.to_json()["edges"], m.ground)}
    us, ws = ("u1", "u2", "u3"), ("w1", "w2", "w3")
    out = []
    for pu, pw, swap in product(permutations(us), permutations(ws), (False, True)):
        vmap = dict(zip(us + ws, (pw + pu) if swap else (pu + pw)))
        out.append({lab: ends[frozenset(map(vmap.get, edge))] for edge, lab in ends.items()})
    return out


@pytest.mark.parametrize("name,find,size,orderings,autos", (
    ("k4", _automorphisms_by_brute_force, 24, 5, 24),
    ("k33", _k33_automorphisms, 72, 40, 3),
))
def test_verdicts_are_invariant_under_automorphisms(name, find, size, orderings, autos):
    m = named_matroid(name)
    group = find(m)
    circuits = set(m.circuits())
    assert len(group) == size
    assert len({tuple(sorted(s.items())) for s in group}) == size
    for sigma in group:
        assert {frozenset(sigma[e] for e in c) for c in circuits} == circuits
    rng = random.Random(name)
    reasons = set()
    for std in _seeded_orderings(m, orderings):
        for sigma in rng.sample(group, autos):
            image = standard_ordering(m, [sigma[e] for e in std.labels])
            for field in (GF2_FIELD, field_from_name("gf3"), Q_FIELD):
                a, b = nbc_check(m, std, field), nbc_check(m, image, field)
                assert (a.verdict, a.reason, a.l_size) == (b.verdict, b.reason, b.l_size), (std, sigma)
                reasons.add(a.reason)
    # the k4 sample gives bases only; the k33 sample reaches every later stage
    assert reasons == ({""} if name == "k4" else {"", "wrong_cardinality", "not_independent"})


# -- the early stop of a search ------------------------------------------------


def _early_stop_fixtures(field):
    for name in ("k4", "k33", "dualk33", "r10"):
        yield name, named_matroid(name)
    yield "u35", uniform(3, 5)
    for sizes in ((2, 3), (3, 4), (2, 3, 2)):
        yield f"theta{sizes}", theta_matroid(sizes)[0]
        yield f"phi{sizes}", phi_matroid(sizes)[0]
    if field is GF2_FIELD:  # U(2,4) is not regular, so gf3 and q refuse it
        yield "u24", uniform(2, 4)


@pytest.mark.parametrize("field", (GF2_FIELD, field_from_name("gf3"), Q_FIELD), ids=lambda F: F.name)
def test_early_stop_gives_the_verdict_of_nbc_check(field):
    # 200 seeded orderings of each fixture (all of the smaller ones); the stop
    # must answer what nbc_check answers, whether it stops or hands on
    rng = random.Random(f"early-stop:{field.name}")
    reasons = set()
    for name, m in _early_stop_fixtures(field):
        total = count_standard_orderings(m)
        for k in rng.sample(range(total), min(200, total)):
            rep = nbc_check(m, standard_ordering_at(m, k), field, include_monomials=False)
            assert engine._check_one(m, k, field) == (k, rep.verdict, rep.reason), (name, k)
            reasons.add(rep.reason)
    assert reasons == {"", "wrong_cardinality", "not_independent"} | (
        {"lsop_invalid"} if field is GF2_FIELD else set())


def test_first_miss_counts_past_either_end_as_zero():
    h = HVector((1, 2, 1))
    assert engine._first_miss([1, 2, 1], h) is None
    assert engine._first_miss([1, 2, 1, 0], h) is None
    assert engine._first_miss([1, 2], h) == (2, 0, 1)
    assert engine._first_miss([1, 2, 1, 3], h) == (3, 3, 0)

    def sizes():  # nothing past the miss is read
        yield from (1, 3)
        raise AssertionError("read past the first miss")

    assert engine._first_miss(sizes(), h) == (1, 3, 2)


def _check_one_without_stop(matroid, k, field):
    rep = nbc_check(matroid, standard_ordering_at(matroid, k), field, include_monomials=False)
    return (k, rep.verdict, rep.reason)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("name,field,policy", (
    ("k4", GF2_FIELD, "exhaustive"),
    ("dualk33", Q_FIELD, "sample:150:2"),
    ("dualk33", GF2_FIELD, "first-hit"),
), ids=("k4-gf2-exhaustive", "dualk33-q-sample", "dualk33-gf2-first-hit"))
def test_search_reports_do_not_depend_on_the_early_stop(name, field, policy, workers, monkeypatch):
    monkeypatch.setattr(engine, "CHUNK_SIZE", 50)
    m = named_matroid(name)
    stopped = search_orderings(m, field, policy=policy, workers=workers)
    # a forked pool worker inherits the patched module
    monkeypatch.setattr(engine, "_check_one", _check_one_without_stop)
    assert search_orderings(m, field, policy=policy, workers=workers) == stopped
    assert stopped.tallies["wrong_cardinality"] < stopped.checked


def test_resumed_search_does_not_depend_on_the_early_stop(tmp_path, monkeypatch):
    m = named_matroid("dualk33")
    policy = "sample:200:3"
    full, saved = _run_keeping_checkpoints(monkeypatch, m, policy, 1, os.fspath(tmp_path / "full.json"))
    mid = next(text for text in saved if 0 < json.loads(text)["cursor"] < full.checked)
    path = tmp_path / "resume.json"
    path.write_text(mid)
    monkeypatch.setattr(engine, "_check_one", _check_one_without_stop)
    assert search_orderings(m, GF2_FIELD, policy=policy, workers=1, checkpoint_path=os.fspath(path)) == full


def test_wrong_cardinality_builds_no_monomial(monkeypatch):
    # a count of calls, not a timing: the stop and the include_monomials=False
    # check decide an R10 ordering without a single Monomial
    m = named_matroid("r10")
    k = 123_456
    std = standard_ordering_at(m, k)
    full = nbc_check(m, std, GF2_FIELD)  # warms the h-vector and the rows
    assert full.reason == "wrong_cardinality" and len(full.l_monomials) == full.l_size
    built = []
    init = Monomial.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Monomial, "__init__", counting)
    assert engine._check_one(m, k, GF2_FIELD) == (k, "not_basis", "wrong_cardinality")
    rep = nbc_check(m, std, GF2_FIELD, include_monomials=False)
    assert rep._replace(l_monomials=full.l_monomials) == full
    assert built == []
    nbc_check(m, std, GF2_FIELD)
    assert len(built) >= full.l_size
