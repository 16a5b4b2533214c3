"""Ready-made matroids: glued uniform families and named fixtures.

Both families are iterated parallel connections of uniform matroids
U(size-1, size) and come packaged with the standard ordering that the
basis search is expected to certify.  Components contribute labels
c<i>e<k>; basepoints are p (single-basepoint family) or p2..pt (chain).
Where the construction leaves a choice (which component element to
designate, how to order leftovers) the smallest label wins, so equal
inputs always produce identical matroids and orderings.
"""

from __future__ import annotations

from .complexes import standard_ordering
from .errors import BadParams, UnknownName
from .fields import GF2_FIELD, Q_FIELD
from .linalg import Matrix
from .matroids import (
    Matroid, from_graph, from_matrix, represented_parallel_connection, seed_enumerations,
    uniform,
)

# the most elements a theta or phi ground set may have.  Past ENUMERATION_CAP
# a glued matroid can only be written out, and the build grows about as the
# cube of the ground set: on one 2-core machine the slowest shapes tried
# took 0.7 s at 200 elements and 50 s (499 parts of size 3) at 999.
MAX_GROUND = 200


def _column_uniform(labels) -> Matroid:
    """U(n-1, n) on the labels as a column matroid over Q; its one circuit
    is the whole ground set, which is seeded, with its rank n - 1."""
    n = len(labels)
    m = from_matrix(uniform(n - 1, n, labels).representation_over(Q_FIELD))
    return seed_enumerations(m, [frozenset(m.ground)], n - 1)


def _checked_sizes(sizes) -> tuple:
    """The sizes as ints, refused before anything is built unless each is at
    least 2 and the glued ground set, sum(sizes) - len(sizes) + 1 elements
    in either family, has at most MAX_GROUND elements."""
    out = tuple(int(s) for s in sizes)
    if not out:
        raise BadParams("need at least one component size")
    if any(s < 2 for s in out):
        raise BadParams("component sizes must be at least 2")
    n = sum(out) - len(out) + 1
    if n > MAX_GROUND:
        raise BadParams(f"ground set of {n} elements exceeds {MAX_GROUND}")
    return out


def theta_matroid(sizes) -> tuple:
    """All components glued at one shared basepoint; sizes are sorted ascending.

    Returns (matroid, ordering).  The ordering starts with the basepoint,
    then one designated element per component (smallest label), then the
    leftovers, assigned from the top label downwards with the first
    component's leftovers taking the highest labels.
    """
    sizes = tuple(sorted(_checked_sizes(sizes)))
    t = len(sizes)
    parts = []
    for i, s in enumerate(sizes, start=1):
        others = [f"c{i}e{k}" for k in range(1, s)]
        parts.append((_column_uniform(["p"] + others), others))
    glued = parts[0][0]
    for m, _ in parts[1:]:
        glued = represented_parallel_connection(glued, m, "p")
    n = len(glued.ground)
    labels: list = [None] * n
    labels[0] = "p"
    for i, (_, others) in enumerate(parts, start=1):
        labels[i] = others[0]
    idx = n - 1
    for _, others in parts:
        for x in others[1:]:
            labels[idx] = x
            idx -= 1
    return glued, standard_ordering(glued, tuple(labels))


def phi_matroid(sizes) -> tuple:
    """A chain of components glued at distinct basepoints, sizes kept as given.

    Component i and i+1 share basepoint p<i+1>.  Returns (matroid, ordering):
    the basepoints in reverse chain order, then one designated non-basepoint
    element of the first component, then the free elements of the last
    component ascending, working back to the first.
    """
    sizes = _checked_sizes(sizes)
    t = len(sizes)
    parts = []
    for i, s in enumerate(sizes, start=1):
        base = []
        if i > 1:
            base.append(f"p{i}")
        if i < t:
            base.append(f"p{i + 1}")
        own = [f"c{i}e{k}" for k in range(1, s + 1 - len(base))]
        if len(base) + len(own) != s:
            raise BadParams(f"component {i} of size {s} cannot carry {len(base)} basepoints")
        parts.append((_column_uniform(base + own), own))
    glued = parts[0][0]
    for i in range(1, t):
        glued = represented_parallel_connection(glued, parts[i][0], f"p{i + 1}")
    labels = [f"p{t + 1 - i}" for i in range(1, t)]
    labels.append(parts[0][1][0])
    for i in range(t - 1, -1, -1):
        own = parts[i][1]
        labels.extend(own[1:] if i == 0 else own)
    return glued, standard_ordering(glued, tuple(labels))


# -- named fixtures ---------------------------------------------------------------

_R10_ROWS = (
    (1, 0, 0, 0, 0, 1, 1, 0, 0, 1),
    (0, 1, 0, 0, 0, 1, 1, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 1, 1, 0, 0, 1, 1),
)

# dual of the K_{3,3} cycle matroid; the raw variant's natural label order is
# not a standard ordering, the reordered one ends in a basis
_DUAL_K33_RAW_ROWS = (
    (1, 1, 0, 1, 1, 0, 0, 0, 0),
    (1, 0, 1, 1, 0, 1, 0, 0, 0),
    (1, 1, 0, 0, 0, 0, 1, 1, 0),
    (1, 0, 1, 0, 0, 0, 1, 0, 1),
)

_DUAL_K33_ROWS = (
    (0, 0, 1, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 0, 1, 1, 1, 0, 1),
    (1, 1, 1, 0, 0, 0, 0, 0, 1),
    (0, 1, 0, 1, 0, 0, 1, 0, 1),
)

_K33_EDGES = (
    ("u1", "w3"), ("u1", "w2"), ("u1", "w1"),
    ("u2", "w3"), ("u2", "w2"), ("u2", "w1"),
    ("u3", "w3"), ("u3", "w2"), ("u3", "w1"),
)

_K4_EDGES = (("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4"))


def _binary(rows) -> Matroid:
    return from_matrix(Matrix.from_int_rows(GF2_FIELD, rows))


_BUILDERS = {
    "r10": lambda: _binary(_R10_ROWS),
    "k33": lambda: from_graph(_K33_EDGES),
    "dualk33": lambda: _binary(_DUAL_K33_ROWS),
    "dualk33raw": lambda: _binary(_DUAL_K33_RAW_ROWS),
    "k4": lambda: from_graph(_K4_EDGES),
}

_DESCRIPTIONS = {
    "r10": "rank-5 regular matroid on 10 elements, neither graphic nor cographic",
    "k33": "cycle matroid of the complete bipartite graph K_{3,3}",
    "dualk33": "dual of the K_{3,3} cycle matroid, columns ordered so e1..e9 is standard",
    "dualk33raw": "dual of the K_{3,3} cycle matroid, unordered columns",
    "k4": "cycle matroid of the complete graph K_4",
}


def list_named() -> tuple:
    return tuple(sorted(_BUILDERS))


def describe_named(name: str) -> str:
    return _DESCRIPTIONS[_canon(name)]


def _canon(name: str) -> str:
    key = name.strip().lower().replace("_", "").replace("-", "")
    if key not in _BUILDERS:
        raise UnknownName(f"no fixture named {name!r}; have {', '.join(list_named())}")
    return key


def named_matroid(name: str) -> Matroid:
    return _BUILDERS[_canon(name)]()
