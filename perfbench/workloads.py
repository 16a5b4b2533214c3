"""The four benchmark workloads.

Each workload makes its inputs from the seed (matroid JSON for the program,
orderings as label lists), does its set-up through the public API, runs
whole rounds of the same operations, and checks what the program returned
against the independent references in refs.py.  Only the program calls
inside a round are timed; the checks run outside those windows.

`api` is the imported matroidlab package.  Every program call goes through
an attribute lookup on it at call time, so a traced run sees the wrappers.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time

import refs

clock = time.perf_counter

R10_ROWS = (
    (1, 0, 0, 0, 0, 1, 1, 0, 0, 1),
    (0, 1, 0, 0, 0, 1, 1, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 1, 1, 0, 0, 1, 1),
)
DUAL_K33_ROWS = (
    (0, 0, 1, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 0, 1, 1, 1, 0, 1),
    (1, 1, 1, 0, 0, 0, 0, 0, 1),
    (0, 1, 0, 1, 0, 0, 1, 0, 1),
)
K33_EDGES = tuple((f"u{i}", f"w{j}") for i in (1, 2, 3) for j in (3, 2, 1))

SCAN_SAMPLE = 1000  # orderings per scan; two default 500-ordering chunks
SCAN_WINDOWS = 10  # the 1-worker scan runs as this many timed shards
LATENCY_SAMPLE = 100  # single nbc_check decisions per scan round
SYMPY_PER_RUN = 3  # mixed-scan orderings that pass cardinality, sent to sympy
RECOUNT_CAP = 400  # single decisions recounted per run (all of them today)
ORACLE_VERIFY_CAP = 16  # oracle checks compared with sympy per run (all today)
GLUED_MAX_SUM = 11
ORACLE_FIELDS = ("gf2", "q", "gf2", "q")  # one k33 ordering per entry


class Outcome:
    """Counts and timings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.decisions = 0  # decisions inside the timed windows
        self.busy = 0.0  # seconds inside the timed windows
        self.latencies: list = []  # wall seconds of single nbc_check calls
        self.info: dict = {}
        self.problems: list = []

    def error(self, n: int, what: str) -> None:
        """n operations raised: they failed, but produced no wrong output."""
        self.failed += n
        self.problems.append(what)

    def expect(self, bad: list, n: int, where: str) -> None:
        """n operations returned output that a reference contradicts, if bad
        lists any failed check: count them failed once, and not correct."""
        if bad:
            self.failed += n
            self.correct = False
            self.problems.append(f"{where}: " + "; ".join(bad))


def _compositions(max_sum: int, max_parts: int = 4, min_part: int = 2) -> list:
    out: list = []

    def rec(prefix: list, budget: int) -> None:
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_parts:
            return
        for p in range(min_part, budget + 1):
            rec(prefix + [p], budget - p)

    rec([], max_sum)
    return out


def _poly_dict(poly, nvars: int) -> dict:
    """A program Polynomial as {exponent tuple: coefficient}."""
    return {
        tuple(m.exponent(v) for v in range(1, nvars + 1)): c
        for m, c in poly.terms.items()
    }


def _random_ordering(rng, bases, labels) -> tuple:
    basis = list(rng.choice(bases))
    cobasis = [e for e in labels if e not in basis]
    rng.shuffle(cobasis)
    rng.shuffle(basis)
    return tuple(cobasis + basis)


# -- scans --------------------------------------------------------------------


class Scan:
    """Scan a seeded sample of standard orderings through search_orderings.

    A round scans SCAN_SAMPLE orderings with one worker as SCAN_WINDOWS
    timed shards, and after each shard times a few single nbc_check
    decisions on orderings the benchmark draws itself (LATENCY_SAMPLE per
    round; they are recounted by brute force afterwards), so that both
    kinds of sample are spread over the whole run.  r10-scan then scans the
    sample again in one piece with two workers.
    """

    def __init__(self, name, matroid_json, oracle, field, two_workers):
        self.name = name
        self.matroid_json = matroid_json
        self.oracle = oracle
        self.field = field
        self.two_workers = two_workers
        self.bases = refs.bases(oracle)
        self.circuits = refs.circuits(oracle)
        self.f, self.h = refs.fh_from_chi(refs.char_poly(oracle))
        self.records: list = []  # (ordering, reason, l_size, h, verdict)

    def input_text(self, seed: int) -> str:
        return json.dumps({"matroid": self.matroid_json})

    def setup(self, api, text: str) -> dict:
        data = json.loads(text)
        m = api.matroid_from_json(data["matroid"])
        F = api.field_from_name(self.field)
        m.bases()
        m.circuits()
        first = api.standard_ordering_at(m, 0)
        f, h = api.f_h_vectors(m, first.ordering)
        m.representation_over(F)
        return {"m": m, "F": F, "f": f, "h": h.entries}

    def round(self, api, state, rng, out: Outcome, traced: bool) -> None:
        m, F = state["m"], state["F"]
        policy = f"sample:{SCAN_SAMPLE}:{rng.randrange(1 << 31)}"
        parts = []
        for i in range(SCAN_WINDOWS):
            shard = f"{i}/{SCAN_WINDOWS}"
            out.attempted += SCAN_SAMPLE // SCAN_WINDOWS
            try:
                t0 = clock()
                rep = api.search_orderings(m, F, policy=policy, workers=1, shard=shard)
                dt = clock() - t0
            except Exception as exc:  # one failed window must not hide the others
                out.error(SCAN_SAMPLE // SCAN_WINDOWS, f"{policy} shard {shard}: {exc!r}")
                continue
            out.busy += dt
            out.decisions += rep.checked
            parts.append(rep)
            self._single_checks(api, m, F, rng, out)
        whole = self._check_scan(parts, out, policy)
        if self.two_workers and not traced:
            out.attempted += SCAN_SAMPLE
            try:
                t0 = clock()
                two = api.search_orderings(m, F, policy=policy, workers=2)
                dt = clock() - t0
                out.info["w2_seconds"] = out.info.get("w2_seconds", 0.0) + dt
                out.info["w2_decisions"] = out.info.get("w2_decisions", 0) + SCAN_SAMPLE
                got = (two.checked, two.tallies, list(two.basis_indices), two.first_basis, two.completed)
                bad = [] if got == whole else [f"2-worker report {got} != 1-worker shards {whole}"]
                out.expect(bad, SCAN_SAMPLE, policy)
            except Exception as exc:
                out.error(SCAN_SAMPLE, f"{policy} workers=2: {exc!r}")

    def _single_checks(self, api, m, F, rng, out: Outcome) -> None:
        """Time single nbc_check decisions between the shards, so that the
        latency samples are spread over the whole run like the shards."""
        labels = tuple(self.matroid_json["labels"])
        for _ in range(LATENCY_SAMPLE // SCAN_WINDOWS):
            ordering = _random_ordering(rng, self.bases, labels)
            out.attempted += 1
            try:
                t0 = clock()
                std = api.standard_ordering(m, ordering)
                rep = api.nbc_check(m, std, F, include_monomials=False)
                out.latencies.append(clock() - t0)
            except Exception as exc:
                out.error(1, f"nbc_check {ordering}: {exc!r}")
                continue
            self.records.append((ordering, rep.reason, rep.l_size, rep.h.entries, rep.verdict))

    def _check_scan(self, parts, out: Outcome, policy: str) -> tuple:
        """Check the merged shard reports; return them as one report's fields.

        README: the tallies of the shards sum to those of the unsharded run,
        which the 2-worker scan then has to reproduce.
        """
        tallies: dict = {}
        for rep in parts:
            for k, v in rep.tallies.items():
                tallies[k] = tallies.get(k, 0) + v
        checked = sum(rep.checked for rep in parts)
        indices = [k for rep in parts for k in rep.basis_indices]
        completed = len(parts) == SCAN_WINDOWS and all(rep.completed for rep in parts)
        first = next((rep.first_basis for rep in parts if rep.first_basis), None)
        total = out.info.setdefault("tallies", {})
        for k, v in tallies.items():
            total[k] = total.get(k, 0) + v
        bad = []
        if checked != SCAN_SAMPLE or not completed:
            bad.append(f"checked {checked} of {SCAN_SAMPLE}")
        if sum(tallies.values()) != checked:
            bad.append(f"tallies {tallies} do not sum to {checked}")
        if tallies.get("lsop_invalid", 0):
            bad.append("lsop_invalid on a regular matroid")
        if self.name == "r10-scan" and tallies.get("basis", 0):
            bad.append("a basis verdict on R10 (criterion 4)")
        out.expect(bad, checked, policy)
        return (checked, tallies, indices[:100], first, completed)

    def verify(self, api, state, out: Outcome, rng) -> None:
        if (tuple(state["f"]), tuple(state["h"])) != (self.f, self.h):
            out.expect([f"f {state['f']}, h {state['h']}; Whitney f {self.f}, h {self.h}"], 0, "set-up")
        passing = []
        for ordering, reason, l_size, h, verdict in self.records[:RECOUNT_CAP]:
            counts, want, lower = refs.recount(self.oracle, ordering, self.circuits, self.h)
            got = "wrong_cardinality" if reason == "wrong_cardinality" else ""
            bad = []
            if tuple(h) != self.h:
                bad.append(f"h {h}, Whitney h {self.h}")
            if sum(counts) != l_size:
                bad.append(f"l_size {l_size}, recount {sum(counts)}")
            if got != want:
                bad.append(f"reason {reason!r}, recount says {want!r}")
            out.expect(bad, 1, str(ordering))
            if not bad and not want:
                passing.append((ordering, verdict, lower))
        out.info["recounted"] = min(len(self.records), RECOUNT_CAP)
        if self.name == "mixed-scan":
            picks = rng.sample(passing, min(SYMPY_PER_RUN, len(passing)))
            for ordering, verdict, lower in picks:
                bad = _sympy_problems(api, state["m"], state["F"], ordering, lower, verdict, None)
                out.expect(bad, 1, f"{ordering}/{self.field}")
            out.info["sympy_checked"] = len(picks)


def _sympy_problems(api, m, F, ordering, lower, verdict, program_gb) -> list:
    """Compare the program's verdict (and basis, if given) with sympy's.

    The generators sent to sympy are the program's eliminated ideal; the
    candidates are the benchmark's own recount of the lower ideal.
    """
    std = api.standard_ordering(m, ordering)
    t = len(ordering) - std.rank
    ideal = api.lsop(m, std, F, validate=False).ideal
    gens = [_poly_dict(g, t) for g in ideal.generators]
    ref = refs.sympy_reference(gens, t, F.char, lower)
    ref_basis = ref["independent"] and ref["dim"] == len(lower)
    bad = []
    if ref_basis != (verdict == "basis"):
        bad.append(f"verdict {verdict}, sympy says basis={ref_basis}")
    if program_gb is not None:
        mine = frozenset(
            frozenset((e, c if F.char != 2 else c % 2) for e, c in _poly_dict(g, t).items())
            for g in program_gb
        )
        if mine != ref["basis"]:
            bad.append("Groebner basis differs from sympy's")
    return bad


# -- glued families ------------------------------------------------------------------


class Glued:
    """One cold gf2 nbc_check per theta and phi instance of every composition.

    The seed shuffles the order of the 274 checks; each timed window builds
    the matroid with theta_matroid or phi_matroid and decides its ordering.
    """

    name = "glued-check"

    def __init__(self):
        self.comps = _compositions(GLUED_MAX_SUM)
        self.h = {s: refs.fh_from_chi(refs.glued_chi(s))[1] for s in self.comps}

    def input_text(self, seed: int) -> str:
        jobs = [[tag, list(s)] for s in self.comps for tag in ("theta", "phi")]
        random.Random(f"glued:{seed}").shuffle(jobs)
        return json.dumps({"field": "gf2", "checks": jobs})

    def setup(self, api, text: str) -> dict:
        data = json.loads(text)
        F = api.field_from_name(data["field"])
        m, std = api.theta_matroid((2, 2))
        m.bases()
        m.circuits()
        api.f_h_vectors(m, std.ordering)
        return {"F": F, "checks": [(tag, tuple(s)) for tag, s in data["checks"]]}

    def round(self, api, state, rng, out: Outcome, traced: bool) -> None:
        F = state["F"]
        for tag, sizes in state["checks"]:
            # each check stands for one `nbc check` process, which starts
            # without the previous check's garbage; collected outside the window
            gc.collect()
            out.attempted += 1
            build = api.theta_matroid if tag == "theta" else api.phi_matroid
            try:
                t0 = clock()
                m, std = build(sizes)
                rep = api.nbc_check(m, std, F, include_monomials=False)
                dt = clock() - t0
            except Exception as exc:
                out.error(1, f"{tag}{sizes}: {exc!r}")
                continue
            out.latencies.append(dt)
            out.busy += dt
            out.decisions += 1
            h = self.h[sizes]
            # h determines f once the rank is fixed, so this checks f as well
            ok = rep.is_basis and tuple(rep.h.entries) == h and rep.l_size == sum(h)
            bad = [] if ok else [f"{rep.verdict}/{rep.reason}, h {rep.h.entries}, "
                                 f"l_size {rep.l_size}; Whitney h {h}"]
            out.expect(bad, 1, f"{tag}{sizes}")

    def verify(self, api, state, out: Outcome, rng) -> None:
        if len(out.latencies) >= 40:
            out.info["check_s_p95"] = statistics.quantiles(out.latencies, n=20)[18]


# -- the Groebner oracle -------------------------------------------------------------


class Oracle:
    """nbc_check(method="both") on k33 orderings that pass cardinality.

    A round draws len(ORACLE_FIELDS) orderings whose brute-force recount
    matches h, and checks each over the field listed for it.  With "both"
    the program itself requires the Macaulay and Buchberger paths to agree.
    The basis that Buchberger computed inside the check is kept by wrapping
    engine.groebner_basis for the duration of the call (one extra call frame
    on a multi-second computation) and is compared with sympy's afterwards.
    """

    name = "oracle-check"

    def __init__(self):
        self.labels = tuple(f"e{i}" for i in range(1, 10))
        self.oracle = refs.GraphicOracle(self.labels, K33_EDGES)
        self.bases = refs.bases(self.oracle)
        self.circuits = refs.circuits(self.oracle)
        self.h = refs.fh_from_chi(refs.char_poly(self.oracle))[1]
        self.records: list = []

    def input_text(self, seed: int) -> str:
        edges = [list(e) for e in K33_EDGES]
        return json.dumps({"matroid": {"type": "graphic", "labels": list(self.labels), "edges": edges}})

    def setup(self, api, text: str) -> dict:
        data = json.loads(text)
        m = api.matroid_from_json(data["matroid"])
        fields = {name: api.field_from_name(name) for name in set(ORACLE_FIELDS)}
        m.bases()
        m.circuits()
        api.f_h_vectors(m, api.standard_ordering_at(m, 0).ordering)
        for F in fields.values():
            m.representation_over(F)
        return {"m": m, "fields": fields}

    def round(self, api, state, rng, out: Outcome, traced: bool) -> None:
        m = state["m"]
        engine = api.engine
        for field_name in ORACLE_FIELDS:
            F = state["fields"][field_name]
            while True:
                ordering = _random_ordering(rng, self.bases, self.labels)
                _, reason, lower = refs.recount(self.oracle, ordering, self.circuits, self.h)
                if not reason:
                    break
            out.attempted += 1
            captured: list = []
            inner = engine.groebner_basis

            def keep(ideal, *args, **kwargs):
                gb = inner(ideal, *args, **kwargs)
                captured.append(gb)
                return gb

            engine.groebner_basis = keep
            try:
                t0 = clock()
                std = api.standard_ordering(m, ordering)
                rep = api.nbc_check(m, std, F, method="both", include_monomials=False)
                dt = clock() - t0
            except Exception as exc:
                out.error(1, f"{ordering}/{field_name}: {exc!r}")
                continue
            finally:
                engine.groebner_basis = inner
            out.latencies.append(dt)
            out.busy += dt
            out.decisions += 1
            out.info.setdefault("verdicts", {}).setdefault(rep.reason or "basis", 0)
            out.info["verdicts"][rep.reason or "basis"] += 1
            ok = (
                rep.cardinality_ok and rep.lsop_valid and tuple(rep.h.entries) == self.h
                and rep.l_size == len(lower)
            )
            bad = [] if ok else [f"{rep.reason}, h {rep.h.entries}, l_size {rep.l_size}, "
                                 f"recount {len(lower)}"]
            out.expect(bad, 1, f"{ordering}/{field_name}")
            if ok:  # a failed check is counted once, not compared again
                self.records.append((ordering, F, lower, rep.verdict, captured[-1] if captured else None))
            out.info["groebner_kept"] = out.info.get("groebner_kept", 0) + bool(captured)

    def verify(self, api, state, out: Outcome, rng) -> None:
        m = state["m"]
        for ordering, F, lower, verdict, gb in self.records[:ORACLE_VERIFY_CAP]:
            if gb is None:  # the check no longer calls engine.groebner_basis
                std = api.standard_ordering(m, ordering)
                gb = api.groebner_basis(api.lsop(m, std, F, validate=False).ideal, "grlex")
            out.expect(_sympy_problems(api, m, F, ordering, lower, verdict, gb), 1, f"{ordering}/{F.name}")
        out.info["sympy_checked"] = min(len(self.records), ORACLE_VERIFY_CAP)


def make(name: str):
    labels10 = [f"e{i}" for i in range(1, 11)]
    labels9 = [f"e{i}" for i in range(1, 10)]
    if name == "r10-scan":
        js = {"type": "column", "labels": labels10, "field": "gf2", "matrix": [list(r) for r in R10_ROWS]}
        return Scan(name, js, refs.BinaryOracle(labels10, R10_ROWS), "gf2", two_workers=True)
    if name == "mixed-scan":
        js = {"type": "column", "labels": labels9, "field": "gf2", "matrix": [list(r) for r in DUAL_K33_ROWS]}
        return Scan(name, js, refs.BinaryOracle(labels9, DUAL_K33_ROWS), "q", two_workers=False)
    if name == "glued-check":
        return Glued()
    if name == "oracle-check":
        return Oracle()
    raise KeyError(name)


NAMES = ("r10-scan", "mixed-scan", "glued-check", "oracle-check")
