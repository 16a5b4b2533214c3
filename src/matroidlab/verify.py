"""Built-in acceptance suite: nine reproducible checks over the fixtures.

Each criterion is a standalone function returning a CriterionResult, and
run_all executes them in order; the command-line front end and the test
suite both call into this module so there is exactly one implementation
of every check.  All arithmetic is exact.  The few wall-clock budgets
exist to catch algorithmic regressions, not to measure hardware.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from typing import NamedTuple

from .complexes import Ordering, f_h_vectors, h_recursion_check, standard_ordering
from .engine import (
    count_standard_orderings,
    decomposition_check,
    lsop,
    nbc_check,
    order_ideals,
    search_orderings,
)
from .errors import (
    BadParams,
    DegenerateElement,
    NoCocircuitPair,
    NotRegular,
    NotStandardOrdering,
)
from .families import named_matroid, phi_matroid, theta_matroid
from .fields import GF2_FIELD, Q_FIELD, GFp
from .incidence import basis_is_nonsingular, check_rank_identities, fundamental_rows
from .matroids import Matroid, cocircuits_via_transversals, uniform
from .polynomials import (
    Ideal,
    Monomial,
    Polynomial,
    monomials_independent_in_quotient,
    monomials_of_degree,
    quotient_dimension,
    quotient_dimension_macaulay,
)

R10_SAMPLE_SIZE = 10_000
R10_SAMPLE_SEED = 97


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"[{mark}] criterion {self.number} ({self.name}): "
            f"{self.detail} [{self.elapsed:.2f}s]"
        )


def _outcome(problems: list, detail: str) -> tuple:
    """(False, the problems, at most four) if there are any, else (True, detail)."""
    return (False, "; ".join(problems[:4])) if problems else (True, detail)


# -- fixture corpus ------------------------------------------------------------


def uniform_fixtures() -> tuple:
    shapes = ((1, 3), (2, 3), (2, 4), (3, 4), (4, 5))
    return tuple((f"u{r}{n}", uniform(r, n)) for r, n in shapes)


def named_fixtures() -> tuple:
    names = ("k4", "k33", "dualk33", "dualk33raw", "r10")
    return tuple((name, named_matroid(name)) for name in names)


def family_fixtures() -> tuple:
    """Small glued-uniform instances with their construction orderings."""
    out = []
    for sizes in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        m, std = theta_matroid(sizes)
        out.append(("theta" + "".join(map(str, sizes)), m, std))
    for sizes in ((2, 2), (3, 3), (3, 2), (2, 2, 2)):
        m, std = phi_matroid(sizes)
        out.append(("phi" + "".join(map(str, sizes)), m, std))
    return tuple(out)


def _q_representable(m: Matroid) -> bool:
    try:
        m.representation_over(Q_FIELD)
        return True
    except NotRegular:
        return False


def _basis_ordering(m: Matroid, basis) -> tuple:
    b = sorted(basis, key=m.position.get)
    cob = sorted(set(m.ground) - set(b), key=m.position.get)
    return tuple(cob) + tuple(b)


def _any_standard(m: Matroid):
    """Natural ordering when its tail is a basis, else the first basis."""
    try:
        return standard_ordering(m, m.ground)
    except NotStandardOrdering:
        return standard_ordering(m, _basis_ordering(m, m.bases()[0]))


# -- criterion 1: free uniform tower -------------------------------------------


def _free_uniform_tower() -> tuple:
    problems = []
    for n in range(1, 9):
        m = uniform(n, n)
        std = standard_ordering(m, m.ground)
        for field in (GF2_FIELD, Q_FIELD):
            th = lsop(m, std, field)
            got = [p.show() for p in th.forms]
            want = [f"x{j}" for j in range(1, n + 1)]
            if got != want:
                problems.append(f"U({n},{n})/{field.name}: forms {got}")
            _, lower = order_ideals(m, std)
            if lower != frozenset({Monomial.one()}):
                problems.append(f"U({n},{n}): lower ideal is not {{1}}")
            rep = nbc_check(m, std, field)
            if not rep.is_basis:
                problems.append(f"U({n},{n})/{field.name}: {rep.verdict}")
    return _outcome(problems, (
        "U(n,n) for n=1..8 over gf2 and q: the linear system is exactly the"
        " variables, the candidate set is {1}, verdict basis"
    ))


# -- criterion 2: single-circuit uniform tower ----------------------------------


def _circuit_uniform_tower() -> tuple:
    problems = []
    for n in range(3, 9):
        m = uniform(n - 1, n)
        std = standard_ordering(m, m.ground)
        ladder = frozenset(
            Monomial.variable(1, a) if a else Monomial.one() for a in range(n - 1)
        )
        for field in (GF2_FIELD, Q_FIELD):
            rep = nbc_check(m, std, field)
            want_h = (1,) * (n - 1) + (0,)
            if rep.h.entries != want_h:
                problems.append(f"U({n - 1},{n})/{field.name}: h={rep.h.entries}")
            got_l = frozenset(Monomial.parse(s) for s in rep.l_monomials)
            if got_l != ladder:
                problems.append(f"U({n - 1},{n})/{field.name}: candidate set")
            if not rep.is_basis:
                problems.append(f"U({n - 1},{n})/{field.name}: {rep.verdict}")
    return _outcome(problems, (
        "U(n-1,n) for n=3..8 over gf2 and q: h=(1,..,1,0), candidate set is"
        " the power ladder of x1, verdict basis"
    ))


# -- criterion 3: the 9-element, rank-4 binary fixture ---------------------------

_DUAL_K33_L = frozenset(
    Monomial.parse(s)
    for s in (
        "1", "x1", "x2", "x3", "x4", "x5",
        "x1^2", "x1 x2", "x1 x4", "x2^2", "x2 x3", "x2 x5",
        "x3 x4", "x3 x5", "x4 x5",
        "x1^2 x2", "x1^2 x4", "x2^2 x3", "x2^2 x5", "x3 x4 x5",
    )
)


def _dual_k33_fixture() -> tuple:
    m = named_matroid("dualk33")
    std = standard_ordering(m, m.ground)
    rep = nbc_check(m, std, GF2_FIELD)
    problems = []
    if frozenset(Monomial.parse(s) for s in rep.l_monomials) != _DUAL_K33_L:
        problems.append(f"candidate set mismatch: {sorted(rep.l_monomials)}")
    if not rep.is_basis:
        problems.append(f"verdict {rep.verdict} ({rep.reason})")
    if rep.h.total != 20:
        problems.append(f"h total {rep.h.total}")
    return _outcome(problems, (
        "DualK33 over gf2: candidate set equals the expected 20 monomials,"
        f" verdict basis, h={rep.h.show()} sums to 20"
    ))


# -- criterion 4: the 10-element, rank-5 regular fixture --------------------------


def _r10_search(exhaustive: bool = False, workers: int | None = None) -> tuple:
    m = named_matroid("r10")
    problems = []
    nb = len(m.bases())
    if nb != 162:
        problems.append(f"bases {nb} != 162")
    total = count_standard_orderings(m)
    if total != 2_332_800:
        problems.append(f"orderings {total} != 2332800")
    policy = f"sample:{R10_SAMPLE_SIZE}:{R10_SAMPLE_SEED}"
    rep = search_orderings(m, GF2_FIELD, policy=policy, workers=workers)
    hits = rep.tallies.get("basis", 0)
    if rep.checked != R10_SAMPLE_SIZE or hits != 0:
        problems.append(f"sample: checked {rep.checked}, basis hits {hits}")
    detail = (
        f"162 bases, 2332800 standard orderings, {policy} over gf2:"
        f" 0 basis verdicts (tallies {dict(sorted(rep.tallies.items()))})"
    )
    if exhaustive:
        ex = search_orderings(m, GF2_FIELD, policy="exhaustive", workers=workers)
        ex_hits = ex.tallies.get("basis", 0)
        if ex.checked != total or ex_hits != 0:
            problems.append(f"exhaustive: checked {ex.checked}, hits {ex_hits}")
        detail += f"; exhaustive run: {ex.checked} checked, {ex_hits} basis verdicts"
    return _outcome(problems, detail)


# -- criterion 5: glued uniform families ------------------------------------------


def _compositions() -> tuple:
    """Every composition with at most 4 parts, each at least 2, summing to at most 12."""
    out = []

    def rec(prefix: list, budget: int) -> None:
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == 4:
            return
        for p in range(2, budget + 1):
            prefix.append(p)
            rec(prefix, budget - p)
            prefix.pop()

    rec([], 12)
    return tuple(out)


def _family_suite() -> tuple:
    comps = _compositions()
    problems = []
    for sizes in comps:
        for tag, build in (("theta", theta_matroid), ("phi", phi_matroid)):
            m, std = build(sizes)
            rep = nbc_check(m, std, GF2_FIELD, include_monomials=False)
            if not rep.is_basis:
                problems.append(f"{tag}{sizes}: {rep.verdict} ({rep.reason})")
    return _outcome(problems, (
        f"all {len(comps)} compositions with parts >= 2, sum <= 12, at most 4"
        " parts: theta and phi orderings give verdict basis over gf2"
        f" ({2 * len(comps)} runs)"
    ))


# -- criterion 6: incidence rank identities and nonsingularity -----------------------


def _incidence_suite() -> tuple:
    problems = []
    # U(2,4) has no representation over either field, so the rank identities
    # and the nonsingularity test do not apply to it; everything else here
    # is representable over gf2, and over q exactly when regular.
    fixtures = tuple(
        (name, m) for name, m in uniform_fixtures() if name != "u24"
    ) + named_fixtures()
    sweeps = 0
    for name, m in fixtures:
        fields = [GF2_FIELD] + ([Q_FIELD] if _q_representable(m) else [])
        bases = m.bases()
        rng = random.Random(f"incidence:{name}")
        picks = sorted(rng.sample(range(len(bases)), min(5, len(bases))))
        r = m.rank()
        for field in fields:
            for i in picks:
                ordering = _basis_ordering(m, bases[i])
                rr = check_rank_identities(m, ordering, field)
                if not rr.ok:
                    problems.append(f"{name}/{field.name}: rank identities at {ordering}")
                    continue
                rows = fundamental_rows(m, bases[i], field)
                for sub in combinations(m.ground, r):
                    if basis_is_nonsingular(rows, sub, field) != m.is_independent(frozenset(sub)):
                        problems.append(f"{name}/{field.name}: disagreement at {sub}")
                        break
                sweeps += 1
    return _outcome(problems, (
        f"{len(fixtures)} fixtures, {sweeps} sampled-basis sweeps: all four"
        " rank identities hold and column nonsingularity matches the"
        " independence oracle on every rank-sized subset"
    ))


# -- criterion 7: deletion-contraction recursions -------------------------------------


def _recursion_suite() -> tuple:
    problems = []
    flat = [(name, m, None) for name, m in uniform_fixtures() + named_fixtures()]
    flat += [(name, m, std) for name, m, std in family_fixtures()]
    h_checked = h_skipped = 0
    for name, m, std in flat:
        o = std.ordering if std is not None else Ordering(m.ground)
        for e in o.labels:
            try:
                rr = h_recursion_check(m, o, e)
            except DegenerateElement:
                h_skipped += 1
                continue
            h_checked += 1
            if not rr.ok:
                problems.append(f"{name}: h recursion fails at {e}")
    applied = skipped = 0
    targets = [(name, m, std) for name, m, std in family_fixtures()]
    for name, m in uniform_fixtures() + named_fixtures():
        try:
            targets.append((name, m, standard_ordering(m, m.ground)))
        except NotStandardOrdering:
            continue
    for name, m, std in targets:
        try:
            dr = decomposition_check(m, std)
        except NoCocircuitPair:
            skipped += 1
            continue
        applied += 1
        if not dr.ok:
            problems.append(f"{name}: split check fails ({dr})")
    if applied < 1:
        problems.append("no fixture admitted the two-element-cocircuit split")
    return _outcome(problems, (
        f"h recursion holds for all {h_checked} non-degenerate fixture elements"
        f" ({h_skipped} degenerate skipped); candidate-set split verified on"
        f" {applied} fixtures ({skipped} lack the cocircuit pair)"
    ))


# -- criterion 8: independent-path agreement ------------------------------------------


def _random_ideal(rng: random.Random, field, nvars: int) -> tuple:
    degs = [rng.randint(1, 3) for _ in range(nvars)]
    gens = [
        Polynomial(field, nvars, {Monomial.variable(j + 1, degs[j]): field.one()})
        for j in range(nvars)
    ]
    for _ in range(rng.randint(0, 2)):
        d = rng.randint(1, 2)
        terms = {}
        for mon in monomials_of_degree(nvars, d):
            c = rng.randint(0, 2)
            if c:
                terms[mon] = field.from_int(c)
        if terms:
            gens.append(Polynomial(field, nvars, terms))
    box = [Monomial.one()]
    for j in range(nvars):
        box = [
            m.mul(Monomial.variable(j + 1, a)) if a else m
            for m in box
            for a in range(degs[j])
        ]
    k = rng.randint(1, len(box))
    # the draw is pinned to the (variable, exponent)-pair order of the box
    cand = rng.sample(sorted(box, key=lambda m: [(v, a) for v, a in enumerate(m.exps, 1) if a]), k)
    return Ideal.make(field, nvars, gens), cand


def _basis_kind(ideal: Ideal, mons: list) -> str:
    """'basis', or how the images of `mons` fail to be a basis of k[x]/ideal.

    Both oracle pairs run: the staircase and slice dimensions must agree,
    and so must the two independence paths; a disagreement raises
    AssertionError.  Precedence: wrong_cardinality when S outnumbers the
    dimension, then not_independent, then not_spanning when S is short.
    """
    dim = quotient_dimension(ideal)
    if dim != quotient_dimension_macaulay(ideal):
        raise AssertionError(f"quotient dimensions disagree: {dim}")
    if len(mons) > dim[0]:
        return "wrong_cardinality"
    if not monomials_independent_in_quotient(ideal, mons, "both")[0]:
        return "not_independent"
    return "not_spanning" if len(mons) < dim[0] else "basis"


def _oracle_suite() -> tuple:
    problems = []
    fixtures = uniform_fixtures() + named_fixtures()
    for name, m in fixtures:
        if set(m.cocircuits()) != set(cocircuits_via_transversals(m)):
            problems.append(f"{name}: cocircuit paths disagree")
    pairs = 0
    quotient_targets = [
        (name, m, _any_standard(m), GF2_FIELD)
        for name, m in fixtures
        if name not in ("u13", "u24")
    ]
    quotient_targets += [
        (name, m, std, GF2_FIELD) for name, m, std in family_fixtures()
    ]
    quotient_targets += [
        (name + "/q", m, _any_standard(m), Q_FIELD)
        for name, m in uniform_fixtures()
        if name in ("u23", "u34", "u45")
    ]
    for name, m, std, field in quotient_targets:
        th = lsop(m, std, field)
        if not th.valid:
            problems.append(f"{name}: system invalid, nothing to compare")
            continue
        _, lower = order_ideals(m, std)
        mons = sorted(lower, key=lambda x: (x.degree(), x.exps))
        try:
            _basis_kind(th.ideal, mons)
        except AssertionError:
            problems.append(f"{name}: dense and reduction paths disagree")
        pairs += 1
    rng = random.Random(8128)
    kinds: dict = {}
    fields = (GF2_FIELD, GFp(3), Q_FIELD)
    for i in range(100):
        ideal, cand = _random_ideal(rng, fields[i % 3], 1 + i % 3)
        try:
            kind = _basis_kind(ideal, cand)
        except AssertionError:
            problems.append(f"random ideal {i}: paths disagree")
            continue
        kinds[kind] = kinds.get(kind, 0) + 1
    return _outcome(problems, (
        f"cocircuit enumeration paths agree on {len(fixtures)} fixtures;"
        f" dense and reduction basis paths agree on {pairs} fixture quotients"
        f" and 100 random ideals (verdicts {dict(sorted(kinds.items()))})"
    ))


# -- criterion 9: ordering invariance of face counts -----------------------------------


def _order_invariance() -> tuple:
    problems = []
    fixtures = uniform_fixtures() + named_fixtures()
    for name, m in fixtures:
        base = f_h_vectors(m, Ordering(m.ground))
        rng = random.Random(f"faces:{name}")
        for _ in range(5):
            labels = list(m.ground)
            rng.shuffle(labels)
            if f_h_vectors(m, Ordering(labels)) != base:
                problems.append(f"{name}: face counts moved under {labels}")
                break
    return _outcome(problems, (
        f"f and h vectors identical under 5 seeded reorderings for each of"
        f" {len(fixtures)} fixtures"
    ))


# -- driver ---------------------------------------------------------------------------


def _timed(number: int, name: str, budget, fn, *args, **kwargs) -> CriterionResult:
    t0 = time.perf_counter()
    ok, detail = fn(*args, **kwargs)
    elapsed = time.perf_counter() - t0
    if ok and budget is not None and elapsed >= budget:
        ok = False
        detail += f"; exceeded the {budget:.0f}s budget"
    return CriterionResult(number, name, ok, detail, elapsed)


CRITERIA = (
    (1, "free-uniform-tower", 1.0, _free_uniform_tower),
    (2, "circuit-uniform-tower", 5.0, _circuit_uniform_tower),
    (3, "dual-k33", 30.0, _dual_k33_fixture),
    (4, "r10-search", None, _r10_search),
    (5, "glued-families", 300.0, _family_suite),
    (6, "incidence-identities", None, _incidence_suite),
    (7, "recursions", None, _recursion_suite),
    (8, "oracle-agreement", None, _oracle_suite),
    (9, "order-invariance", None, _order_invariance),
)


def run_criterion(
    number: int, r10_exhaustive: bool = False, workers: int | None = None
) -> CriterionResult:
    for num, name, budget, fn in CRITERIA:
        if num != number:
            continue
        if num == 4:
            return _timed(num, name, budget, fn, exhaustive=r10_exhaustive,
                          workers=workers)
        return _timed(num, name, budget, fn)
    raise BadParams(f"no criterion {number}")


def run_all(r10_exhaustive: bool = False, workers: int | None = None) -> list:
    return [
        run_criterion(num, r10_exhaustive=r10_exhaustive, workers=workers)
        for num, _, _, _ in CRITERIA
    ]
