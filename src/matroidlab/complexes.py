"""Broken circuit complexes: faces, f- and h-vectors, consistency checks.

An ordering is a permutation of the ground set; positions are 1-based.
A broken circuit is a circuit minus its smallest element, and a face is
any subset of the ground set containing no broken circuit.  Face numbers
do not depend on the ordering (Whitney's broken-circuit theorem); h_vector
relies on that to cache M's h, and criterion 9 tests it uncached.

Loops make the complex void (the empty circuit's broken circuit is the
empty set, which every subset contains): all face counts are zero.
"""

from __future__ import annotations

from math import comb
from types import MappingProxyType
from typing import NamedTuple

from .errors import BadParams, DegenerateElement, NotStandardOrdering
from .matroids import Matroid


class Ordering:
    """A total order on ground set labels; immutable, 1-based positions."""

    __slots__ = ("labels", "_pos")

    def __init__(self, labels):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise BadParams("ordering has repeated labels")
        self._pos = {lab: i + 1 for i, lab in enumerate(self.labels)}

    def position(self, label) -> int:
        p = self._pos.get(label)
        if p is None:
            raise BadParams(f"label {label!r} not in ordering")
        return p

    @property
    def positions(self) -> MappingProxyType:  # label -> position, read-only
        return MappingProxyType(self._pos)

    def validate_for(self, matroid: Matroid) -> None:
        if sorted(self.labels) != sorted(matroid.ground):
            raise BadParams("ordering is not a permutation of the ground set")

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return isinstance(other, Ordering) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"Ordering({','.join(map(str, self.labels))})"

    def show(self) -> str:
        return ",".join(map(str, self.labels))


class HVector(NamedTuple):
    entries: tuple  # h_0 .. h_d

    @property
    def total(self) -> int:
        return sum(self.entries)

    def show(self) -> str:
        return "(" + ", ".join(map(str, self.entries)) + ")"


def _as_ordering(matroid: Matroid, ordering) -> Ordering:
    o = ordering if isinstance(ordering, Ordering) else Ordering(tuple(ordering))
    o.validate_for(matroid)
    return o


class StandardOrdering:
    """An ordering whose last `rank` labels form a basis."""

    __slots__ = ("ordering", "rank")

    def __init__(self, ordering: Ordering, rank: int):
        self.ordering = ordering
        self.rank = rank

    @property
    def labels(self) -> tuple:
        return self.ordering.labels

    @property
    def cobasis(self) -> tuple:
        return self.labels[: len(self.labels) - self.rank]

    @property
    def basis(self) -> tuple:
        return self.labels[len(self.labels) - self.rank:]

    def __repr__(self):
        return f"StandardOrdering({self.ordering.show()}; rank {self.rank})"

    def show(self) -> str:
        return self.ordering.show()


def standard_ordering(matroid: Matroid, labels) -> StandardOrdering:
    """The ordering of `labels`, checked to permute the ground set and to
    end in a basis (NotStandardOrdering otherwise)."""
    o = _as_ordering(matroid, labels)
    r = matroid.rank()
    basis = o.labels[len(o.labels) - r:]
    if r and not matroid.is_independent(frozenset(basis)):
        raise NotStandardOrdering(f"last {r} elements {basis} are not a basis")
    return StandardOrdering(o, r)


def broken_circuits(matroid: Matroid, ordering) -> tuple:
    """Each circuit minus its smallest element, sorted by (size, positions)."""
    o = _as_ordering(matroid, ordering)
    out = []
    for c in matroid.circuits():
        least = min(c, key=o.position)
        out.append(frozenset(c) - {least})
    out.sort(key=lambda s: (len(s), tuple(sorted(o.position(e) for e in s))))
    return tuple(out)


def _face_masks(matroid: Matroid, o: Ordering):
    """Every face as a bit mask over 0-based positions; none when a loop exists.

    A mask grows only by positions above its highest bit, and a broken
    circuit is tested when its highest position is added, so each face is
    yielded once and every set containing a broken circuit is cut."""
    bcs = broken_circuits(matroid, o)
    if any(not b for b in bcs):
        return
    n = len(o.labels)
    by_max = [[] for _ in range(n)]
    for b in bcs:
        positions = [o.position(e) - 1 for e in b]
        mask = 0
        for p in positions:
            mask |= 1 << p
        by_max[max(positions)].append(mask)
    stack = [(0, 0)]
    while stack:
        start, mask = stack.pop()
        yield mask
        for p in range(start, n):
            nm = mask | (1 << p)
            if not any(bm & nm == bm for bm in by_max[p]):
                stack.append((p + 1, nm))


def _sorted_faces(o: Ordering, masks) -> tuple:
    """The masks as label frozensets, sorted by (size, positions)."""
    n = len(o.labels)

    def spots(mask):
        return [p for p in range(n) if mask >> p & 1]

    masks = sorted(masks, key=lambda m: (m.bit_count(), spots(m)))
    return tuple(frozenset(o.labels[p] for p in spots(m)) for m in masks)


def bc_faces(matroid: Matroid, ordering) -> tuple:
    """All faces, sorted by (size, positions).  Void (no faces) when a loop exists."""
    o = _as_ordering(matroid, ordering)
    return _sorted_faces(o, _face_masks(matroid, o))


def bc_facets(matroid: Matroid, ordering) -> tuple:
    """Maximal faces, sorted by positions.  The complex is pure, so these
    are the faces of size rank; no smaller face is built."""
    o = _as_ordering(matroid, ordering)
    r = matroid.rank()
    return _sorted_faces(o, [m for m in _face_masks(matroid, o) if m.bit_count() == r])


def f_h_vectors(matroid: Matroid, ordering) -> tuple:
    """(f, h) where f = (f_-1, f_0, ..., f_{r-1}) and h = (h_0, ..., h_r).

    h is defined by sum_i f_{i-1} t^i (1-t)^{r-i} = sum_i h_i t^i; all
    arithmetic is exact integer convolution.
    """
    r = matroid.rank()
    f = [0] * (r + 1)
    for mask in _face_masks(matroid, _as_ordering(matroid, ordering)):
        f[mask.bit_count()] += 1
    h = [0] * (r + 1)
    for i in range(r + 1):
        if not f[i]:
            continue
        # f[i] * t^i * (1-t)^(r-i)
        for k in range(r - i + 1):
            h[i + k] += f[i] * (-1) ** k * comb(r - i, k)
    return tuple(f), HVector(tuple(h))


def h_vector(matroid: Matroid, ordering) -> HVector:
    """The h-vector of M, computed under the first ordering asked and cached
    on M.  That is sound because f and h do not depend on the ordering: by
    Whitney's broken-circuit theorem f_{i-1} is the absolute Whitney number
    of the first kind |w_i| of M, which no ordering enters.  Criterion 9
    checks that invariant with f_h_vectors, uncached."""
    cached = matroid._cache.get("h_vector")
    if cached is None:
        _, cached = f_h_vectors(matroid, ordering)
        matroid._cache["h_vector"] = cached
    return cached


class RecursionReport(NamedTuple):
    element: str
    ok: bool
    h: HVector
    h_delete: HVector
    h_contract: HVector


def h_recursion_check(matroid: Matroid, ordering, element) -> RecursionReport:
    """Check h_i(M) == h_i(M without e) + h_{i-1}(M contracted at e).

    Requires e to be neither a loop nor a coloop (DegenerateElement
    otherwise: deletion would drop rank or contraction would force one)."""
    o = _as_ordering(matroid, ordering)
    if not matroid.is_independent([element]):
        raise DegenerateElement(f"{element} is a loop")
    rest = [lab for lab in o.labels if lab != element]
    if matroid.rank(rest) < matroid.rank():
        raise DegenerateElement(f"{element} is a coloop")
    h = h_vector(matroid, o)
    _, hd = f_h_vectors(matroid.delete([element]), Ordering(rest))
    _, hc = f_h_vectors(matroid.contract([element]), Ordering(rest))
    d = len(h.entries)
    ok = all(
        h.entries[i]
        == (hd.entries[i] if i < len(hd.entries) else 0)
        + (hc.entries[i - 1] if 1 <= i <= len(hc.entries) else 0)
        for i in range(d)
    )
    return RecursionReport(element, ok, h, hd, hc)
