"""The monomial basis pipeline: orderings, theta systems, candidate sets, search.

A standard ordering is a permutation of the ground set whose last rank(M)
elements form a basis.  For each one the engine builds the distinguished
linear forms (one per basis element, read off the signed fundamental
cocircuit rows), eliminates the basis variables, and compares the candidate
lower order ideal against the quotient by exact linear algebra.  Each row
is stored once, as the substitution that eliminates its basis variable;
the forms are derived from it (ThetaSystem.forms).

The decision logic never assumes the construction succeeds.  The verdict
for an ordering is reached in three sound stages: per-degree cardinality
of the candidate set against the h-vector, then the facet-rank criterion
for the linear system (its failure means the quotient is infinite
dimensional, so no finite set can be a basis), then exact independence of
the candidate monomials in the quotient.  The candidate set is walked one
degree at a time (polynomials.staircase_levels), so a search stops at the
first degree whose count misses h_d and builds no monomial for it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from itertools import zip_longest
from math import factorial
from typing import NamedTuple

from .complexes import (
    HVector, Ordering, StandardOrdering, bc_facets, h_recursion_check, h_vector,
    standard_ordering,
)
from .errors import BadParams, NoCocircuitPair
from .fields import Field, GF2_FIELD, field_from_name
from .incidence import basis_is_nonsingular, fundamental_rows
from .matroids import Matroid, matroid_from_json
from .polynomials import (
    METHODS, Ideal, Monomial, Polynomial, groebner_basis,
    monomials_independent_in_quotient, staircase, staircase_levels,
)

DEFAULT_CHECKPOINT_EVERY = 5000
BASIS_INDEX_CAP = 100
# orderings per task handed to a pool worker
CHUNK_SIZE = 500


# -- enumeration ---------------------------------------------------------------


def count_standard_orderings(matroid: Matroid) -> int:
    n = len(matroid.ground)
    r = matroid.rank()
    return len(matroid.bases()) * factorial(r) * factorial(n - r)


def _perm_unrank(items, k: int) -> list:
    """k-th permutation of `items` in lexicographic order of positions."""
    pool = list(items)
    out = []
    for i in range(len(pool), 0, -1):
        idx, k = divmod(k, factorial(i - 1))
        out.append(pool.pop(idx))
    return out


def standard_ordering_at(matroid: Matroid, k: int) -> StandardOrdering:
    """Unrank: index = (basis number, cobasis permutation, basis permutation)
    in mixed radix, most significant first.

    Basis number b is matroid.bases()[b], whose order is ascending by
    position tuple.  Within a basis and its cobasis, _perm_unrank counts
    permutations of the position-sorted labels in lexicographic order of
    positions, so ordering indices ascend with (basis positions, cobasis
    permutation, basis permutation)."""
    total = count_standard_orderings(matroid)
    if not 0 <= k < total:
        raise BadParams(f"ordering index {k} outside [0, {total})")
    n = len(matroid.ground)
    r = matroid.rank()
    f_bas = factorial(r)
    f_cob = factorial(n - r)
    b_idx, rem = divmod(k, f_cob * f_bas)
    cob_rank, bas_rank = divmod(rem, f_bas)
    bset = matroid.bases()[b_idx]
    pos = matroid.position
    basis = sorted(bset, key=pos.get)
    cobasis = sorted((e for e in matroid.ground if e not in bset), key=pos.get)
    labels = tuple(_perm_unrank(cobasis, cob_rank) + _perm_unrank(basis, bas_rank))
    return StandardOrdering(Ordering(labels), r)


# -- theta systems -------------------------------------------------------------


class ThetaSystem(NamedTuple):
    """The distinguished linear forms for one standard ordering and field.

    Each signed fundamental cocircuit row is stored once, as substitution:
    basis position j maps to its elimination image in the t cobasis
    variables, minus the cobasis part of row j.  forms is derived from it.
    ideal is the eliminated ideal with one generator per circuit (zero
    generators dropped); generators keeps every (circuit, polynomial) pair.
    """

    substitution: dict
    generators: tuple
    ideal: Ideal
    valid: bool | None
    invalid_facet: frozenset | None

    @property
    def forms(self) -> tuple:
        """form_j = x_j - substitution[j] in all n position-variables, for
        basis positions j ascending: row j of the cocircuit matrix, whose
        basis block is the identity."""
        F, t = self.ideal.field, self.ideal.nvars
        n = t + len(self.substitution)
        return tuple(
            Polynomial(F, n, [(m, F.neg(c)) for m, c in self.substitution[j].terms.items()]
                       + [(Monomial.variable(j), F.one())])
            for j in range(t + 1, n + 1)
        )


def lsop(
    matroid: Matroid,
    std: StandardOrdering,
    field: Field,
    validate: bool = True,
) -> ThetaSystem:
    """Build the linear system and eliminated ideal; optionally check the
    facet-rank criterion (every facet's column set nonsingular), which for
    a quotient by rank-many linear forms decides finite-dimensionality
    (Kind-Kleinschmidt 1979).

    Only GF(2) walks the facets, testing each facet's columns of the same
    fundamental cocircuit rows the forms are read from; no dense matrix is
    made.  Elsewhere the rows are a standard form of
    representation_over(field) (the source matrix, a signed incidence or
    uniform matrix, or a certified TU signing), whose column matroid is M,
    and each facet is a basis (no circuit, size rank), so none is singular.
    Over GF(2) the rows are the oracle's and represent M only if M is
    binary.
    """
    t = len(std.cobasis)
    F = field
    rows = fundamental_rows(matroid, std.basis, F)
    position = std.ordering.position
    substitution = {}
    for b in std.basis:
        row = rows[b]
        substitution[position(b)] = Polynomial(F, t, {
            Monomial.variable(i): F.neg(row[e]) for i, e in enumerate(std.cobasis, 1) if e in row
        })
    gens = []
    for C in matroid.circuits():
        least = min(position(e) for e in C)
        p = Polynomial.constant(F, t, F.one())
        for e in sorted(C, key=position):
            j = position(e)
            if j == least:
                continue
            p = p.term_mul(Monomial.variable(j)) if j <= t else p.mul(substitution[j])
        gens.append((frozenset(C), p))
    ideal = Ideal.make(F, t, [p for _, p in gens])
    valid = bad = None
    if validate:
        facets = bc_facets(matroid, std.ordering) if F.char == 2 else ()
        bad = next((f for f in facets if not basis_is_nonsingular(rows, f, F)), None)
        valid = bad is None
    return ThetaSystem(substitution, tuple(gens), ideal, valid, bad)


# -- candidate monomials -------------------------------------------------------


def dj_values(matroid: Matroid, std: StandardOrdering) -> tuple:
    """d_1..d_n: position itself for cobasis positions, else the smallest
    position inside the fundamental cocircuit of that basis element."""
    rows = fundamental_rows(matroid, std.basis, GF2_FIELD)
    pos = std.ordering.positions
    t = len(std.cobasis)
    return tuple(range(1, t + 1)) + tuple(min(map(pos.__getitem__, rows[b])) for b in std.basis)


def _candidate_exponents(matroid: Matroid, std: StandardOrdering) -> list:
    """The dense exponent tuple, in t = n - rank variables, of each
    circuit's candidate monomial, in circuit order: a pure power of the
    circuit's unique cobasis variable when the circuit is fundamental, else
    the product of the d-values over the circuit minus its smallest element.
    Each cobasis variable has a fundamental circuit, so its staircase is
    finite."""
    pos = std.ordering.positions
    t = len(std.cobasis)
    d = dj_values(matroid, std)
    out = []
    for C in matroid.circuits():
        ps = [pos[e] for e in C]
        cob = [p for p in ps if p <= t]
        exps = [0] * t
        if len(cob) == 1:
            exps[cob[0] - 1] = len(ps) - 1
        else:
            for p in ps:
                exps[d[p - 1] - 1] += 1
            exps[min(cob) - 1] -= 1  # the smallest element is its own d-value
        out.append(tuple(exps))
    return out


def candidate_monomials(matroid: Matroid, std: StandardOrdering) -> tuple:
    """(circuit, monomial) per circuit, as _candidate_exponents builds them."""
    exps = _candidate_exponents(matroid, std)
    return tuple((frozenset(C), Monomial(e)) for C, e in zip(matroid.circuits(), exps))


def order_ideals(matroid: Matroid, std: StandardOrdering) -> tuple:
    """(upper, lower): the minimal generators of the upper ideal generated
    by the candidate monomials, and its finite complement, the candidate
    basis, in t = n - rank variables, each a frozenset of monomials (see
    polynomials.staircase)."""
    return staircase((m for _, m in candidate_monomials(matroid, std)), len(std.cobasis))


# -- the basis decision --------------------------------------------------------


class NbcReport(NamedTuple):
    ordering: tuple
    field: str
    h: HVector
    l_size: int
    quotient_dim: int | None
    cardinality_ok: bool
    lsop_valid: bool | None
    independent: bool | None
    verdict: str  # "basis" | "not_basis"
    reason: str  # "" | "wrong_cardinality" | "lsop_invalid" | "not_independent"
    witness: str | None
    l_monomials: tuple

    @property
    def is_basis(self) -> bool:
        return self.verdict == "basis"


def _first_miss(sizes, h: HVector) -> tuple | None:
    """(d, got, want) at the first degree d whose candidate count `got`
    differs from h_d = `want`, or None.  Counts past either end are 0, and
    `sizes` is read only up to the miss, so a lazy walk stops there."""
    pairs = zip_longest(sizes, h.entries, fillvalue=0)
    return next(((d, got, want) for d, (got, want) in enumerate(pairs) if got != want), None)


def nbc_check(
    matroid: Matroid,
    std: StandardOrdering,
    field: Field,
    method: str = "macaulay",
    include_monomials: bool = True,
) -> NbcReport:
    """Decide whether the ordering's candidate monomials form a quotient basis.

    Stages, each sound on its own: (1) the candidate set must match the
    h-vector degree by degree (a finite candidate set can never be a basis
    otherwise, whatever the quotient is); (2) the facet-rank criterion must
    hold (otherwise the quotient is infinite dimensional); (3) the candidate
    images must be linearly independent, checked by dense degree-by-degree
    elimination ('macaulay'), Buchberger normal forms ('groebner'), or
    'both' (which must agree).
    """
    if method not in METHODS:
        raise BadParams(f"unknown method {method!r}")
    h = h_vector(matroid, std.ordering)
    levels = list(staircase_levels(_candidate_exponents(matroid, std), len(std.cobasis)))
    mismatch = _first_miss(map(len, levels), h)
    # a wrong_cardinality verdict needs no Monomials; grlex ascends by degree,
    # then by dense tuple
    L = ()
    if mismatch is None or include_monomials:
        L = [Monomial(c) for level in levels for c in sorted(level)]
    shown = tuple(m.show() for m in L) if include_monomials else ()

    def report(quotient_dim, cardinality_ok, lsop_valid, independent, verdict, reason, witness):
        return NbcReport(
            ordering=std.labels,
            field=field.name,
            h=h,
            l_size=sum(map(len, levels)),
            quotient_dim=quotient_dim,
            cardinality_ok=cardinality_ok,
            lsop_valid=lsop_valid,
            independent=independent,
            verdict=verdict,
            reason=reason,
            witness=witness,
            l_monomials=shown,
        )

    if mismatch is not None:
        d, got, want = mismatch
        return report(
            None, False, None, None, "not_basis", "wrong_cardinality",
            f"degree {d}: {got} candidate monomials, h_{d} = {want}",
        )
    theta = lsop(matroid, std, field, validate=True)
    if not theta.valid:
        facet = "{" + ",".join(sorted(theta.invalid_facet, key=std.ordering.position)) + "}"
        return report(None, True, False, None, "not_basis", "lsop_invalid", facet)
    # the basis goes through this module's groebner_basis, so a caller can wrap it
    gb = None if method == "macaulay" else groebner_basis(theta.ideal, "grlex")
    ok, wit = monomials_independent_in_quotient(theta.ideal, L, method, gb)
    if not ok:
        return report(h.total, True, True, False, "not_basis", "not_independent", wit.show())
    return report(h.total, True, True, True, "basis", "", None)


# -- deletion-contraction decomposition ----------------------------------------


class DecompositionReport(NamedTuple):
    pair: tuple
    l_split_ok: bool
    delete_cocircuits_ok: bool
    contract_cocircuits_ok: bool
    type1_ok: bool
    type2_ok: bool
    h_additive_ok: bool

    @property
    def ok(self) -> bool:
        return all(self[1:])


def decomposition_check(matroid: Matroid, std: StandardOrdering) -> DecompositionReport:
    """Verify the deletion-contraction identities when the last element and
    the last cobasis element form a cocircuit (NoCocircuitPair otherwise).

    Checks, over GF(2): the candidate-set split L(M) = L(M-e) + x_t L(M/e);
    the two fundamental cocircuit transfer laws; the generator and candidate
    correspondences for circuits through e (type I) and away from e (type
    II); and degreewise h-vector additivity.
    """
    labels = std.labels
    n = len(labels)
    r = std.rank
    t = n - r
    if t < 1 or r < 1:
        raise NoCocircuitPair("need at least one cobasis and one basis element")
    e_last = labels[-1]
    e_f = labels[t - 1]
    pair = frozenset({e_last, e_f})
    if pair not in set(matroid.cocircuits()):
        raise NoCocircuitPair(f"{{{e_f},{e_last}}} is not a cocircuit")
    rest = labels[:-1]
    m_del = matroid.delete([e_last])
    m_con = matroid.contract([e_last])
    std_del = standard_ordering(m_del, rest)
    std_con = standard_ordering(m_con, rest)

    _, low = order_ideals(matroid, std)
    _, low_d = order_ideals(m_del, std_del)
    _, low_c = order_ideals(m_con, std_con)
    xt = Monomial.variable(t)
    lifted = {xt.mul(m) for m in low_c}
    l_split_ok = low == low_d | lifted and not low_d & lifted

    B = frozenset(std.basis)
    B1 = frozenset(std_del.basis)
    B2 = frozenset(std_con.basis)
    delete_ok = m_del.fundamental_cocircuit(B1, e_f) == frozenset({e_f}) == (
        matroid.fundamental_cocircuit(B, e_last) - {e_last}
    ) and all(
        m_del.fundamental_cocircuit(B1, b) == matroid.fundamental_cocircuit(B, b) - {e_f}
        for b in sorted(B1 - {e_f}, key=matroid.position.get)
    )
    contract_ok = all(
        m_con.fundamental_cocircuit(B2, b) == matroid.fundamental_cocircuit(B, b)
        for b in sorted(B2, key=matroid.position.get)
    )

    F = GF2_FIELD
    th = lsop(matroid, std, F, validate=False)
    th_c = lsop(m_con, std_con, F, validate=False)
    gens = {c: p for c, p in th.generators}
    gens_c = {c: p for c, p in th_c.generators}
    mc = {c: m for c, m in candidate_monomials(matroid, std)}
    mc_c = {c: m for c, m in candidate_monomials(m_con, std_con)}
    type1_ok = True
    type2_ok = True
    for C in matroid.circuits():
        cf = frozenset(C)
        if e_last in cf:
            if e_f not in cf:
                type1_ok = False
                continue
            cc = cf - {e_last}
            if cc not in gens_c or gens[cf] != gens_c[cc].term_mul(xt) or mc[cf] != mc_c[cc].mul(xt):
                type1_ok = False
        else:
            if cf not in gens_c or gens[cf] != gens_c[cf] or mc[cf] != mc_c[cf]:
                type2_ok = False

    # e_last is in the basis, so no loop, and in the cocircuit pair, so no coloop
    h_ok = h_recursion_check(matroid, std.ordering, e_last).ok
    return DecompositionReport(
        (e_f, e_last), l_split_ok, delete_ok, contract_ok, type1_ok, type2_ok, h_ok
    )


# -- search over all standard orderings ----------------------------------------


class SearchReport(NamedTuple):
    policy: str
    field: str
    shard: str
    total_orderings: int
    domain: int
    checked: int
    tallies: dict
    basis_indices: tuple
    first_basis: dict | None
    completed: bool


def _policy_indices(policy: str, total: int):
    if policy in ("exhaustive", "first-hit"):
        return range(total)
    if policy.startswith("sample:"):
        parts = policy.split(":")
        if len(parts) != 3:
            raise BadParams("sample policy must be sample:COUNT:SEED")
        try:
            count, seed = int(parts[1]), int(parts[2])
        except ValueError:
            raise BadParams("sample policy must be sample:COUNT:SEED with integers") from None
        if count <= 0:
            raise BadParams("sample count must be positive")
        if count >= total:
            return range(total)
        rng = random.Random(seed)
        return sorted(rng.sample(range(total), count))
    raise BadParams(f"unknown policy {policy!r}")


def _check_one(matroid: Matroid, k: int, field: Field) -> tuple:
    """(k, verdict, reason) of nbc_check for ordering k, without calling it
    when the candidate basis misses the h-vector.  That is nbc_check's first
    stage, and a level's count is final once the walk has built it, so the
    walk stops at the first level whose size is not h_d (a non-empty level
    past the top of h, or an empty one below it, counts)."""
    std = standard_ordering_at(matroid, k)
    sizes = map(len, staircase_levels(_candidate_exponents(matroid, std), len(std.cobasis)))
    if _first_miss(sizes, h_vector(matroid, std.ordering)) is not None:
        return (k, "not_basis", "wrong_cardinality")
    rep = nbc_check(matroid, std, field, method="macaulay", include_monomials=False)
    return (k, rep.verdict, rep.reason)


# the matroid and field of a pool worker process, set once by _init_worker
_WORKER: tuple | None = None


def _init_worker(data: dict, field_name: str) -> None:
    """Pool initializer: build the matroid and field once per worker process,
    so its circuits, bases and h-vector are computed once, not per chunk."""
    global _WORKER
    _WORKER = (matroid_from_json(data), field_from_name(field_name))


def _search_chunk(indices: list) -> list:
    matroid, field = _WORKER
    return [_check_one(matroid, k, field) for k in indices]


def _matroid_digest(matroid: Matroid) -> str:
    text = json.dumps(matroid.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _load_checkpoint(
    path: str, matroid: Matroid, digest: str, policy: str, field: Field, shard: str,
    domain: int, verdicts,
) -> dict | None:
    """The saved state, or None when there is none yet.  Raises BadParams,
    naming the file, when it is not a JSON object of the saved shape, was
    written for another run, or does not agree with itself: its basis
    indices must be ordering indices of the matroid, as many as the basis
    tally (up to BASIS_INDEX_CAP), and first_basis must be None when that
    tally is 0 and otherwise the first basis index with its ordering."""
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            state = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise BadParams(f"checkpoint {path} is not readable JSON: {exc}") from None
    if not isinstance(state, dict):
        raise BadParams(f"checkpoint {path} is not a JSON object")
    for key, want in (
        ("matroid", digest), ("policy", policy), ("field", field.name), ("shard", shard),
    ):
        if state.get(key) != want:
            raise BadParams(f"checkpoint {path} was written for a different {key}")
    for key, kind in (
        ("cursor", int), ("tallies", dict), ("basis_indices", list),
        ("first_basis", (dict, type(None))),
    ):
        if key not in state or not isinstance(state[key], kind) or isinstance(state[key], bool):
            raise BadParams(f"checkpoint {path} has no {key!r} of the saved type")
    cursor, tallies = state["cursor"], state["tallies"]
    if not 0 <= cursor <= domain:
        raise BadParams(f"checkpoint {path} has cursor {cursor} outside [0, {domain}]")
    if not set(tallies) <= set(verdicts) or not all(
        type(n) is int and n >= 0 for n in tallies.values()
    ):
        raise BadParams(f"checkpoint {path} has malformed tallies")
    if sum(tallies.values()) != cursor:
        raise BadParams(
            f"checkpoint {path} has tallies summing to {sum(tallies.values())}, cursor {cursor}"
        )
    indices, first = state["basis_indices"], state["first_basis"]
    total = count_standard_orderings(matroid)
    found = tallies.get("basis", 0)
    if len(indices) != min(found, BASIS_INDEX_CAP) or not all(
        type(k) is int and 0 <= k < total for k in indices
    ):
        raise BadParams(f"checkpoint {path} has malformed basis indices")
    want = None
    if found:
        want = {"index": indices[0],
                "ordering": list(standard_ordering_at(matroid, indices[0]).labels)}
    # True == 1 in Python, so the index also has to be an int
    if first != want or (want and type(first["index"]) is not int):
        raise BadParams(f"checkpoint {path} has a first_basis that does not match its bases")
    return state


def _save_checkpoint(path, digest, policy, field, shard, cursor, tallies,
                     basis_indices, first_basis):
    state = {
        "matroid": digest,
        "policy": policy,
        "field": field.name,
        "shard": shard,
        "cursor": cursor,
        "tallies": tallies,
        "basis_indices": list(basis_indices),
        "first_basis": first_basis,
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh)
    os.replace(tmp, path)


def _parse_shard(shard) -> tuple:
    if shard is None:
        return (0, 1)
    if isinstance(shard, str):
        parts = shard.split("/")
        if len(parts) != 2:
            raise BadParams("shard must look like i/m")
        try:
            shard = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise BadParams("shard must look like i/m with integers") from None
    i, m = shard
    if m < 1 or not 0 <= i < m:
        raise BadParams(f"shard index {i} outside [0, {m})")
    return (i, m)


def search_orderings(
    matroid: Matroid,
    field: Field,
    policy: str = "exhaustive",
    workers: int | None = None,
    shard=None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> SearchReport:
    """Run the basis decision over standard orderings chosen by the policy.

    Policies: 'exhaustive' (every index ascending), 'sample:COUNT:SEED'
    (sorted sample without replacement, reproducible from the seed),
    'first-hit' (ascending scan, stop at the first basis).  shard="i/m"
    restricts the run to the i-th of m contiguous blocks of the policy's
    index list, for splitting work across machines.  Results are merged in
    index order, so tallies do not depend on the worker count.  Checkpoints
    store the cursor into the (sharded) index list and are only accepted
    back for the same matroid, policy, field and shard, with a cursor inside
    the index list, tallies that sum to it, and basis indices and a
    first_basis that agree with the basis tally.  With more than one worker,
    each worker process builds the matroid once, in the pool initializer.
    """
    total = count_standard_orderings(matroid)
    indices = _policy_indices(policy, total)
    s_i, s_m = _parse_shard(shard)
    shard_text = f"{s_i}/{s_m}"
    if s_m > 1:
        lo = s_i * len(indices) // s_m
        hi = (s_i + 1) * len(indices) // s_m
        indices = indices[lo:hi]
    domain = len(indices)
    digest = _matroid_digest(matroid)
    if workers is None:
        try:
            workers = int(os.environ.get("MATROIDLAB_WORKERS", "1"))
        except ValueError:
            raise BadParams("MATROIDLAB_WORKERS must be an integer") from None
    if workers < 1:
        raise BadParams("workers must be >= 1")
    if checkpoint_every < 1:
        raise BadParams("checkpoint interval must be >= 1")
    tallies = {"basis": 0, "wrong_cardinality": 0, "lsop_invalid": 0, "not_independent": 0}
    basis_indices: list = []
    first_basis = None
    cursor = 0
    state = _load_checkpoint(
        checkpoint_path, matroid, digest, policy, field, shard_text, domain, tallies,
    )
    if state is not None:
        cursor = state["cursor"]
        tallies.update(state["tallies"])
        basis_indices = list(state["basis_indices"])
        first_basis = state["first_basis"]
    stop_early = policy == "first-hit"
    done_early = bool(stop_early and first_basis is not None)

    def absorb(k, verdict, reason) -> bool:
        """Tally one result; True when it ends a first-hit scan."""
        nonlocal first_basis
        key = "basis" if verdict == "basis" else reason
        tallies[key] = tallies.get(key, 0) + 1
        if verdict != "basis":
            return False
        if len(basis_indices) < BASIS_INDEX_CAP:
            basis_indices.append(k)
        if first_basis is None:
            first_basis = {
                "index": k,
                "ordering": list(standard_ordering_at(matroid, k).labels),
            }
        return stop_early

    since_save = 0

    def maybe_save(force=False):
        nonlocal since_save
        if checkpoint_path and (force or since_save >= checkpoint_every):
            _save_checkpoint(
                checkpoint_path, digest, policy, field, shard_text, cursor,
                tallies, basis_indices, first_basis,
            )
            since_save = 0

    def results(start: int):
        """(index, verdict, reason) for the index list from `start`, in order."""
        if workers == 1:
            for i in range(start, domain):
                yield _check_one(matroid, indices[i], field)
            return
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(matroid.to_json(), field.name),
        ) as pool:
            while start < domain:
                window = []
                while start < domain and len(window) < workers * 4:
                    window.append([indices[i] for i in range(start, min(start + CHUNK_SIZE, domain))])
                    start += len(window[-1])
                futures = [pool.submit(_search_chunk, chunk) for chunk in window]
                for fut in futures:
                    yield from fut.result()

    if not done_early:
        # the cursor advances one result at a time, so a first-hit scan stops
        # at the hit whatever the worker count
        with closing(results(cursor)) as stream:
            for k, verdict, reason in stream:
                cursor += 1
                since_save += 1
                if absorb(k, verdict, reason):
                    done_early = True
                    break
                maybe_save()
    maybe_save(force=True)
    completed = done_early or cursor >= domain
    return SearchReport(
        policy=policy,
        field=field.name,
        shard=shard_text,
        total_orderings=total,
        domain=domain,
        checked=cursor,
        tallies=tallies,
        basis_indices=tuple(basis_indices),
        first_basis=first_basis,
        completed=completed,
    )
