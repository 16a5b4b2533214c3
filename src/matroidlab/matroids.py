"""Matroids over ordered ground sets of string labels.

Four backends share one independence-oracle interface: column matroids of
exact matrices, graphic matroids of edge lists, uniform matroids, and
explicit circuit lists (used for parallel connections and for every minor).
Enumerations (circuits, cocircuits, bases) are cached and refuse ground
sets larger than ENUMERATION_CAP, since everything here is desk scale by
design.  The bases are the r-subsets the oracle accepts; the circuits of
column and graphic matroids, and every matroid's cocircuits, are read off
them as fundamental circuits and cocircuits, with no scan of subsets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import (
    BadOverlap,
    BadParams,
    BadRank,
    DegenerateElement,
    DuplicateLabels,
    NotBasisElement,
    NotCobasisElement,
    NotRegular,
    Overbudget,
    SingularBasis,
)
from .fields import Field, Q_FIELD, field_from_name
from .linalg import (
    ENUMERATION_CAP, RESIDUE_FIELD, RESIDUE_PRIME, Matrix, RowSpace,
    is_sign_rescaling, is_unimodular_standard_form, tu_signing,
)


def validate_ground(labels) -> tuple:
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabels(f"labels not distinct: {labels}")
    return labels


# -- backends ----------------------------------------------------------------


class _ColumnBackend:
    """Column matroid of an exact matrix: S is independent when its columns
    all grow a RowSpace.

    Over GF(2) and GF(p) that space is over the matrix's own field, and the
    test is exact.  Over Q the columns of S are first reduced to their
    residues modulo RESIDUE_PRIME = 2^61 - 1.  A rank mod p equal to |S|
    proves S independent: some |S| x |S| minor is nonzero mod p, and
    reduction mod p is a ring map on the rationals whose denominators p does
    not divide, which every entry of those columns is, so that minor is
    nonzero over Q too.  A smaller rank mod p proves nothing, because p may
    divide a nonzero minor (a column of multiples of p reads as zero), so
    then the verdict comes from the exact space, fraction-free over Q.  A
    subset with a column whose denominators p divides has no residues and
    takes the exact path.  Each column is converted on its first query,
    since many matroids (glued operands with their enumerations seeded) are
    never queried and a cold check asks for only a few columns.
    """

    kind = "column"

    def __init__(self, matrix: Matrix, ground):
        if matrix.ncols != len(ground):
            raise BadParams("column count must match ground size")
        self.matrix = matrix
        self.index = {e: i for i, e in enumerate(ground)}
        self._residues: dict = {}  # column index -> residues or None

    @cached_property
    def columns(self) -> list:
        return list(zip(*self.matrix.entries))

    def _residue(self, j):
        """Column j as a tuple of residues mod RESIDUE_PRIME, or None when
        an entry's denominator is divisible by it."""
        if j not in self._residues:
            p, col = RESIDUE_PRIME, self.columns[j]
            ok = all(x.denominator % p for x in col)
            self._residues[j] = tuple(x.numerator * pow(x.denominator, -1, p) % p for x in col) if ok else None
        return self._residues[j]

    def indep(self, subset) -> bool:
        cols = [self.index[e] for e in subset]
        F, m = self.matrix.field, self.matrix.nrows
        if not F.char:
            res = [self._residue(j) for j in cols]
            space = RowSpace(RESIDUE_FIELD, m)
            if None not in res and all(space.add(r) for r in res):
                return True
        space = RowSpace(F, m)
        return all(space.add(self.columns[j]) for j in cols)


class _GraphicBackend:
    kind = "graphic"

    def __init__(self, edges, ground):
        if len(edges) != len(ground):
            raise BadParams("edge count must match ground size")
        self.edges = tuple((str(u), str(v)) for u, v in edges)
        self.edge_of = dict(zip(ground, self.edges))

    def indep(self, subset) -> bool:
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in subset:
            u, v = self.edge_of[e]
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True


class _UniformBackend:
    kind = "uniform"

    def __init__(self, r: int, n: int):
        if not 0 <= r <= n:
            raise BadRank(f"uniform rank {r} outside [0, {n}]")
        self.r = r

    def indep(self, subset) -> bool:
        return len(subset) <= self.r


class _CircuitBackend:
    kind = "circuits"

    def __init__(self, circuits, ground):
        gset = set(ground)
        circs = []
        for c in circuits:
            fc = frozenset(str(x) for x in c)
            if not fc:
                raise BadParams("empty circuit")
            if not fc <= gset:
                raise BadParams(f"circuit {sorted(fc)} not inside ground set")
            circs.append(fc)
        circs = sorted(set(circs), key=lambda c: (len(c), sorted(c)))
        for a, b in combinations(circs, 2):
            if a < b or b < a:
                raise BadParams("circuits must form an antichain")
        self.circuits = tuple(circs)

    def indep(self, subset) -> bool:
        s = frozenset(subset)
        return not any(c <= s for c in self.circuits)


class Matroid:
    """Immutable matroid; all queries go through a memoized independence oracle."""

    def __init__(self, ground, backend):
        self.ground = validate_ground(ground)
        self.backend = backend
        self.position = {e: i for i, e in enumerate(self.ground)}
        self._indep_memo: dict = {}
        self._cache: dict = {}

    # -- oracle ------------------------------------------------------------

    def _check_labels(self, s) -> None:
        pos = self.position
        if not all(e in pos for e in s):
            raise BadParams(f"{sorted(e for e in s if e not in pos)} not in ground set")

    def is_independent(self, subset) -> bool:
        s = frozenset(subset)
        hit = self._indep_memo.get(s)
        if hit is None:
            # the memo holds only subsets of the ground set, so a hit needs no check
            self._check_labels(s)
            hit = self._indep_memo[s] = self.backend.indep(s)
        return hit

    def rank(self, subset=None) -> int:
        """Rank via greedy extension (valid by the exchange property)."""
        if subset is None:
            elems = self.ground
        else:
            keep = set(subset)
            self._check_labels(keep)
            elems = [e for e in self.ground if e in keep]
        if subset is None and "rank" in self._cache:
            return self._cache["rank"]
        r = len(self._greedy_basis(elems))
        if subset is None:
            self._cache["rank"] = r
        return r

    def _greedy_basis(self, elems) -> list:
        """Each element in turn, kept when it is independent of those kept."""
        picked = []
        for e in elems:
            picked.append(e)
            if not self.is_independent(picked):
                picked.pop()
        return picked

    def is_coindependent(self, subset) -> bool:
        s = set(subset)
        self._check_labels(s)
        return len(self._greedy_basis([e for e in self.ground if e not in s])) == self.rank()

    # -- enumeration ---------------------------------------------------------

    def _guard(self):
        if len(self.ground) > ENUMERATION_CAP:
            raise Overbudget(f"ground set of {len(self.ground)} exceeds cap {ENUMERATION_CAP}")

    def circuits(self) -> tuple:
        """The circuits in _circuit_key order: listed for a circuit-defined
        matroid, every (r + 1)-set for U(r, n), else the fundamental circuits
        C(B, e) over the bases B, since a circuit C is C(B, e) for any basis
        B containing C - e (Oxley, Matroid Theory, 2011, ch. 2)."""
        if "circuits" in self._cache:
            return self._cache["circuits"]
        self._guard()
        if isinstance(self.backend, _CircuitBackend):
            found = list(self.backend.circuits)
        elif isinstance(self.backend, _UniformBackend):
            r = self.backend.r
            found = (
                [frozenset(c) for c in combinations(self.ground, r + 1)]
                if r < len(self.ground)
                else []
            )
        else:
            found = self._fundamentals(self.fundamental_circuit, dual=False)
        found = tuple(sorted(found, key=self._circuit_key))
        self._cache["circuits"] = found
        return found

    def cocircuits(self) -> tuple:
        """The cocircuits in _circuit_key order: the fundamental cocircuits
        C*(B, b) over the bases B, since a cocircuit D is C*(B, b) for any
        basis B with B & D = {b} (Oxley, ch. 2)."""
        if "cocircuits" in self._cache:
            return self._cache["cocircuits"]
        self._guard()
        found = self._fundamentals(self.fundamental_cocircuit, dual=True)
        found = tuple(sorted(found, key=self._circuit_key))
        self._cache["cocircuits"] = found
        return found

    def _fundamentals(self, fundamental, dual: bool) -> list:
        """The distinct fundamental(B, x) over the bases B and x in S, where
        S is B for cocircuits (dual) and E - B for circuits.  A set already
        found that meets S in {x} alone is fundamental(B, x), so that pair
        is skipped: the circuit in B + e through e is unique, and so is the
        cocircuit in (E - B) + b through b."""
        found: list = []
        for basis in self.bases():
            side = basis if dual else frozenset(self.ground) - basis
            seen = {x for c in found if len(c & side) == 1 for x in c & side}
            found += [fundamental(basis, x) for x in self.ground if x in side and x not in seen]
        return found

    def _circuit_key(self, c):
        return tuple(sorted(self.position[e] for e in c))

    def bases(self) -> tuple:
        """The bases, ascending by their tuple of ground positions, since
        combinations yields r-subsets of the ground set in that order."""
        if "bases" in self._cache:
            return self._cache["bases"]
        self._guard()
        r = self.rank()
        out = tuple(
            frozenset(b)
            for b in combinations(self.ground, r)
            if self.is_independent(b)
        )
        self._cache["bases"] = out
        return out

    def loops(self) -> tuple:
        return tuple(e for e in self.ground if not self.is_independent([e]))

    def coloops(self) -> tuple:
        r = self.rank()
        return tuple(
            e
            for e in self.ground
            if self.rank([f for f in self.ground if f != e]) < r
        )

    # -- fundamental circuits/cocircuits -------------------------------------

    def _check_basis(self, basis) -> frozenset:
        b = frozenset(basis)
        if len(b) != self.rank() or not self.is_independent(b):
            raise BadRank(f"{sorted(b)} is not a basis")
        return b

    def fundamental_circuit(self, basis, e: str) -> frozenset:
        """The unique circuit inside basis + {e} through e.

        With the circuits cached it is the one cached circuit through e
        inside basis + {e}; otherwise each basis element is dropped in turn
        while what is left stays dependent, at r oracle queries."""
        b = self._check_basis(basis)
        if e in b:
            raise NotCobasisElement(f"{e} lies in the basis")
        if e not in self.position:
            raise BadParams(f"{e} not in ground set")
        if "circuits" in self._cache:
            s = b | {e}
            return next(c for c in self._cache["circuits"] if e in c and c <= s)
        s = set(b) | {e}
        for x in sorted(b, key=self.position.get):
            t = s - {x}
            if not self.is_independent(t):
                s = t
        return frozenset(s)

    def fundamental_cocircuit(self, basis, b_elem: str) -> frozenset:
        """The unique cocircuit inside (E - basis) + {b_elem} through b_elem:
        b_elem and each e outside the basis whose fundamental circuit holds
        it, by the exchange identity  b in C(B, e)  <=>  e in C*(B, b)
        (Oxley, Matroid Theory, 2011)."""
        b = self._check_basis(basis)
        if b_elem not in b:
            raise NotBasisElement(f"{b_elem} does not lie in the basis")
        return frozenset([b_elem]).union(
            e for e in self.ground if e not in b and b_elem in self.fundamental_circuit(b, e)
        )

    # -- minors --------------------------------------------------------------

    def delete(self, elems) -> "Matroid":
        """M minus T, whose circuits are the circuits of M that avoid T.

        Both minors are read off M's circuits, so ENUMERATION_CAP applies,
        and both are circuit-defined, with no field representation."""
        drop = frozenset([elems] if isinstance(elems, str) else elems)
        self._check_labels(drop)
        keep = [e for e in self.ground if e not in drop]
        return from_circuits([c for c in self.circuits() if not c & drop], keep)

    def contract(self, elems) -> "Matroid":
        """M/T, whose circuits are the minimal nonempty sets C - T over the
        circuits C of M (Oxley, Matroid Theory, 2011, Prop. 3.1.11); this
        holds when T has loops or is dependent too."""
        take = frozenset([elems] if isinstance(elems, str) else elems)
        self._check_labels(take)
        cands = {c - take for c in self.circuits()} - {frozenset()}
        minimal = [c for c in cands if not any(d < c for d in cands)]
        return from_circuits(minimal, [e for e in self.ground if e not in take])

    # -- representations --------------------------------------------------------

    def representation_over(self, field: Field) -> Matrix:
        """A matrix over `field` whose column matroid (labels aligned) is M.

        For char != 2 this produces a totally unimodular (signed) matrix,
        searching for a regular signing when the backend is binary.  Raises
        NotRegular when no usable representation exists.
        """
        key = field.name
        if key in self._cache.setdefault("reps", {}):
            return self._cache["reps"][key]
        mat = self._build_representation(field)
        self._cache["reps"][key] = mat
        return mat

    def _build_representation(self, field: Field) -> Matrix:
        be = self.backend
        if isinstance(be, _ColumnBackend):
            src = be.matrix
            if src.field.name == field.name:
                return Matrix(src.field, src.entries, col_labels=self.ground)
            if src.field.char in (0, 2):
                # a TU representation represents M over every field
                signed = self._signed_from_binaryish(src)
                return signed if field.char == 0 else signed.map_to_field(field)
            raise NotRegular(f"cannot convert a {src.field.name} representation to {field.name}")
        if isinstance(be, _GraphicBackend):
            inc = _signed_incidence(be, self.ground)
            return inc if field.char == 0 else inc.map_to_field(field)
        if isinstance(be, _UniformBackend):
            mat = _uniform_representation(be.r, len(self.ground), field)
            if mat is None:
                n = len(self.ground)
                raise NotRegular(f"U({be.r},{n}) has no regular/binary representation")
            return Matrix(mat.field, mat.entries, col_labels=self.ground)
        raise NotRegular(f"no representation backend for {be.kind} matroid")

    def _signed_from_binaryish(self, src: Matrix) -> Matrix:
        """A totally unimodular standard form over Q whose column matroid is M.

        The candidates, in turn: (a) a rational source that is a +-1
        rescaling of (b); (b) tu_signing of the source's support; (c)
        tu_signing of the support of the source's standard form on B, M's
        greedy first basis.  One is accepted when its standard form on B
        passes is_unimodular_standard_form against the source's: then it is
        TU and represents M.  (a) and (b) keep the row space of a TU source,
        or of a support whose signing represents M.  (c) passes whenever M
        is regular: M is then binary, so that support, its fundamental-
        cocircuit incidence on B, represents it over GF(2) (binary matroids
        are uniquely representable, Brylawski-Lucas 1976), and the standard
        form on B of a TU representation is a TU signing of it, which
        Camion's signing finds.  So NotRegular means that M is not regular.
        """
        basis = [self.position[e] for e in self._greedy_basis(self.ground)]
        ref = src.standard_form(basis)
        signed = tu_signing(_support(src))

        def candidates():
            if src.field.char == 0 and is_sign_rescaling(src, signed):
                yield src
            yield signed
            yield tu_signing(_support(ref))

        for cand in candidates():
            try:
                sf = cand.standard_form(basis)
            except (SingularBasis, BadRank):
                continue
            if is_unimodular_standard_form(sf, basis, ref):
                rows = sf.entries or [[Fraction(0)] * len(self.ground)]
                return Matrix(Q_FIELD, rows, col_labels=self.ground)
        raise NotRegular("no totally unimodular representation: the matroid is not regular")

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        be = self.backend
        labels = list(self.ground)
        if isinstance(be, _ColumnBackend):
            F = be.matrix.field
            rows = [[s if "/" in s else int(s) for s in map(F.show, r)] for r in be.matrix.entries]
            return {"type": "column", "labels": labels, "field": F.name, "matrix": rows}
        if isinstance(be, _GraphicBackend):
            return {
                "type": "graphic",
                "labels": labels,
                "edges": [[u, v] for u, v in (be.edge_of[e] for e in self.ground)],
            }
        if isinstance(be, _UniformBackend):
            return {"type": "uniform", "labels": labels, "rank": be.r}
        return {
            "type": "circuits",
            "labels": labels,
            "circuits": [sorted(c, key=self.position.get) for c in be.circuits],
        }

    def __repr__(self):
        return f"Matroid({self.backend.kind}, n={len(self.ground)}, r={self.rank()})"


# -- constructors --------------------------------------------------------------


def from_matrix(matrix: Matrix, labels=None) -> Matroid:
    if labels is None:
        labels = matrix.col_labels or [f"e{i + 1}" for i in range(matrix.ncols)]
    ground = validate_ground(labels)
    mat = Matrix(matrix.field, matrix.entries, col_labels=ground)
    return Matroid(ground, _ColumnBackend(mat, ground))


def from_graph(edges, labels=None) -> Matroid:
    edges = [(str(u), str(v)) for u, v in edges]
    if labels is None:
        labels = [f"e{i + 1}" for i in range(len(edges))]
    ground = validate_ground(labels)
    return Matroid(ground, _GraphicBackend(edges, ground))


def uniform(r: int, n: int, labels=None) -> Matroid:
    if labels is None:
        labels = [f"e{i + 1}" for i in range(n)]
    ground = validate_ground(labels)
    if len(ground) != n:
        raise BadParams("label count must equal n")
    return Matroid(ground, _UniformBackend(r, n))


def from_circuits(circuits, labels) -> Matroid:
    ground = validate_ground(labels)
    return Matroid(ground, _CircuitBackend(circuits, ground))


def _json_list(data: dict, key: str, of_lists: bool = False) -> list:
    value = data.get(key)
    if not isinstance(value, list) or (of_lists and not all(isinstance(x, list) for x in value)):
        raise BadParams(f"matroid JSON needs {key!r} as a list" + (" of lists" if of_lists else ""))
    return value


def _str_or_int(x) -> bool:
    """A JSON string or integer: no float, bool, list, object or null."""
    return isinstance(x, str) or isinstance(x, int) and not isinstance(x, bool)


def matroid_from_json(data) -> Matroid:
    """Build a matroid from its to_json form; malformed input raises BadParams."""
    if not isinstance(data, dict):
        raise BadParams("matroid JSON must be an object")
    kind = data.get("type")
    labels = _json_list(data, "labels")
    bad = [x for x in labels if not _str_or_int(x)]
    if bad:
        raise BadParams(f"label {bad[0]!r} is not a string or an integer")
    if kind == "column":
        field = data.get("field")
        F = field_from_name(field if isinstance(field, str) else "")
        matrix = _json_list(data, "matrix", True)
        bad = [x for r in matrix for x in r if not _str_or_int(x)]
        if bad:
            raise BadParams(f"matrix entry {bad[0]!r} is not an integer or a string")
        try:
            rows = [[F.parse(str(x)) for x in r] for r in matrix]
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParams(f"matrix entry is not a {F.name} element: {exc}") from None
        return from_matrix(Matrix(F, rows), labels)
    if kind == "graphic":
        edges = _json_list(data, "edges", True)
        if any(len(e) != 2 for e in edges):
            raise BadParams("every edge must list two vertices")
        return from_graph([tuple(e) for e in edges], labels)
    if kind == "uniform":
        rank = data.get("rank")
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise BadParams("uniform matroid JSON needs an integer 'rank'")
        return uniform(rank, len(labels), labels)
    if kind == "circuits":
        circuits = _json_list(data, "circuits", True)
        return from_circuits([frozenset(map(str, c)) for c in circuits], labels)
    raise BadParams(f"unknown matroid type {kind!r}")


# -- parallel connection ---------------------------------------------------------


def parallel_connection(m: Matroid, n: Matroid, p: str) -> Matroid:
    """Definitional parallel connection along the shared basepoint p.

    Circuits are C(M) + C(N) + pairwise merges (C1 + C2) - p over circuits
    through p.  Ground order: E(M) in order, then E(N) - p in order.
    """
    overlap = set(m.ground) & set(n.ground)
    if overlap != {p}:
        raise BadOverlap(f"ground sets must overlap exactly in {{{p}}}, got {sorted(overlap)}")
    if not m.is_independent([p]) or not n.is_independent([p]):
        raise DegenerateElement(f"basepoint {p} must not be a loop")
    ground = list(m.ground) + [e for e in n.ground if e != p]
    return from_circuits(_parallel_circuits(m.circuits(), n.circuits(), p), ground)


def _parallel_circuits(cm, cn, p: str) -> list:
    """Circuits of the parallel connection along p, which is a loop of
    neither part: C(M) + C(N) + {(C1 + C2) - p : p in C1 in C(M), p in C2
    in C(N)} (Oxley, Matroid Theory, 2011, Prop. 7.1.13)."""
    merged = [(c1 | c2) - {p} for c1 in cm if p in c1 for c2 in cn if p in c2]
    return list(cm) + list(cn) + merged


def seed_enumerations(m: Matroid, circuits, rank: int) -> Matroid:
    """Cache the rank and circuits (None: unknown) that a construction
    proves, and return m.

    The circuits are stored in the order circuits() gives them, and only
    when the ground set is within ENUMERATION_CAP, so a seeded matroid
    refuses the same enumerations as one that scans."""
    m._cache["rank"] = rank
    if circuits is not None and len(m.ground) <= ENUMERATION_CAP:
        m._cache["circuits"] = tuple(sorted(circuits, key=m._circuit_key))
    return m


def represented_parallel_connection(m: Matroid, n: Matroid, p: str) -> Matroid:
    """Column-backend parallel connection by gluing the shared coordinate.

    Both operands must be column matroids over the same field.  Each
    representation is row-reduced so the basepoint column is the first unit
    vector, then the two are glued along that coordinate.

    The result's rank is r(M) + r(N) - 1, since p is a loop of neither
    part (Oxley, Matroid Theory, 2011, Prop. 7.1.15).  When both parts have
    their circuits cached, the result's circuits are seeded from theirs
    (Prop. 7.1.13), so it never scans subsets for them.
    """
    overlap = set(m.ground) & set(n.ground)
    if overlap != {p}:
        raise BadOverlap(f"ground sets must overlap exactly in {{{p}}}, got {sorted(overlap)}")
    if not isinstance(m.backend, _ColumnBackend) or not isinstance(n.backend, _ColumnBackend):
        raise BadParams("both operands must be column matroids")
    A, B = m.backend.matrix, n.backend.matrix
    if A.field != B.field:
        raise BadParams("operands must share a field")
    F = A.field
    A = _basepoint_first(A, m.position[p])
    B = _basepoint_first(B, n.position[p])
    ra, rb = A.nrows, B.nrows
    z = F.zero()
    cols: dict = {}
    for j, e in enumerate(m.ground):
        cols[e] = list(A.column(j)) + [z] * (rb - 1)
    for j, e in enumerate(n.ground):
        if e == p:
            continue
        c = B.column(j)
        cols[e] = [c[0]] + [z] * (ra - 1) + list(c[1:])
    ground = list(m.ground) + [e for e in n.ground if e != p]
    rows = [[cols[e][i] for e in ground] for i in range(ra + rb - 1)]
    glued = from_matrix(Matrix(F, rows), ground)
    cm, cn = m._cache.get("circuits"), n._cache.get("circuits")
    circuits = None if cm is None or cn is None else _parallel_circuits(cm, cn, p)
    return seed_enumerations(glued, circuits, m.rank() + n.rank() - 1)


def _basepoint_first(mat: Matrix, col: int) -> Matrix:
    """Row-reduce so the given column is the first unit vector, dropping zero
    rows: one Gauss-Jordan step on the first row with a nonzero in the
    column, scaled to 1 there; DegenerateElement when the column is zero."""
    F, z = mat.field, mat.field.zero()
    work = [list(r) for r in mat.entries]
    pr = next((i for i, r in enumerate(work) if r[col] != z), None)
    if pr is None:
        raise DegenerateElement("basepoint column is zero")
    inv = F.inv(work[pr][col])
    if inv != F.one():
        work[pr] = [F.mul(inv, x) for x in work[pr]]
    for i, r in enumerate(work):
        f = r[col]
        if i != pr and f != z:
            work[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(r, work[pr])]
    rest = [r for i, r in enumerate(work) if i != pr and any(x != z for x in r)]
    return Matrix(F, [work[pr]] + rest)


def cocircuits_via_transversals(m: Matroid) -> tuple:
    """Independent path: cocircuits as minimal sets meeting every basis."""
    bases = m.bases()
    found: list = []
    n = len(m.ground)
    for k in range(1, n + 1):
        for c in combinations(m.ground, k):
            s = frozenset(c)
            if any(f <= s for f in found):
                continue
            if all(s & b for b in bases):
                found.append(s)
    return tuple(sorted(found, key=m._circuit_key))


def _support(mat: Matrix) -> Matrix:
    return Matrix.from_int_rows(Q_FIELD, [[1 if x else 0 for x in r] for r in mat.entries])


def _signed_incidence(be: _GraphicBackend, ground) -> Matrix:
    """+1 at an edge's tail, -1 at its head; a loop's column is zero."""
    verts = sorted({w for u, v in be.edges for w in (u, v)})
    ends = [be.edge_of[e] for e in ground]
    rows = [[Fraction((u == w) - (v == w)) for u, v in ends] for w in verts]
    return Matrix(Q_FIELD, rows or [[Fraction(0)] * len(ground)], col_labels=ground)


def _uniform_representation(r: int, n: int, field: Field):
    if r == 0:
        return Matrix.zero(field, 1, n)
    if r == n:
        return Matrix.identity(field, n)
    if r == 1:
        return Matrix(field, [[field.one()] * n])
    if r == n - 1:
        o, z = field.one(), field.zero()
        rows = [[o if j == i else z for j in range(n - 1)] + [o] for i in range(n - 1)]
        return Matrix(field, rows)
    return None
