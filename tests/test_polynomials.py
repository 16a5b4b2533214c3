import random
import re
from fractions import Fraction
from itertools import product
from operator import le

import pytest

from matroidlab.engine import lsop, standard_ordering_at
from matroidlab.errors import BadParams, NotArtinian
from matroidlab.families import list_named, named_matroid
from matroidlab.fields import GF2_FIELD, GFp, Q_FIELD
from matroidlab.polynomials import (
    Ideal,
    METHODS,
    Monomial,
    Polynomial,
    _descending,
    groebner_basis,
    monomials_independent_in_quotient,
    monomials_of_degree,
    normal_form,
    normal_form_span,
    order_key,
    quotient_dimension,
    quotient_dimension_macaulay,
    standard_monomials,
    staircase,
    staircase_levels,
)
from matroidlab.verify import _basis_kind

X = Monomial.variable(1)
Y = Monomial.variable(2)
X2 = Monomial.variable(1, 2)
Y2 = Monomial.variable(2, 2)
XY = X.mul(Y)


def _poly(field, nvars, text):
    """The polynomial written as Polynomial.show() writes it."""
    chunks = re.split(r"\s*([+-])\s*", text.strip())
    chunks = chunks[1:] if chunks[0] == "" else ["+"] + chunks
    terms = []
    for sign, body in zip(chunks[0::2], chunks[1::2]):
        coeff, mono = re.fullmatch(r"(\d+(?:/\d+)?)?\s*(.*)", body).groups()
        c = field.parse(coeff) if coeff else field.one()
        terms.append((Monomial.parse(mono) if mono else Monomial.one(), field.neg(c) if sign == "-" else c))
    return Polynomial(field, nvars, terms)


def test_monomial_basics():
    m = Monomial.parse("x1^2 x3")
    assert m.degree() == 3
    assert m.exponent(1) == 2 and m.exponent(2) == 0
    assert m.show() == "x1^2 x3"
    assert Monomial.parse("1") == Monomial.one()
    assert Monomial.one().show() == "1"
    assert X.mul(X) == X2
    assert X.divides(X2) and not X2.divides(X)
    assert X2.div(X) == X
    assert X.lcm(Y) == XY
    assert X.is_coprime(Y) and not X.is_coprime(XY)
    with pytest.raises(BadParams):
        Y.div(X)
    for bad in ("z2", "x0", "x0^2"):
        with pytest.raises(BadParams):
            Monomial.parse(bad)
    with pytest.raises(BadParams):
        Monomial.variable(0)


def test_order_keys():
    grlex = order_key("grlex", 2)
    lex = order_key("lex", 2)
    # grlex sorts by total degree first; lex by exponent of x1 first
    assert sorted([X2, Y], key=grlex) == [Y, X2]
    assert sorted([X, Y2], key=lex) == [Y2, X]
    with pytest.raises(BadParams):
        order_key("mystery", 2)


def test_monomial_matches_padded_reference():
    # the reference: exponent lists zero-padded to one common length, so no
    # operation on it meets tuples of different lengths; the inputs mix
    # lengths and carry explicit trailing zeros
    rng = random.Random(2718)
    width = 7
    vecs = [[0, 0, 1], [1], [0, 1], [1, 0, 0], [], [0, 0]]
    for _ in range(40):
        vecs.append([rng.randint(0, 3) for _ in range(rng.randint(0, 5))] + [0] * rng.randint(0, 2))

    def padded(e):
        return tuple(e) + (0,) * (width - len(e))

    keys = {order: order_key(order, width) for order in ("lex", "grlex")}
    ref_keys = {
        "lex": lambda p: p,
        "grlex": lambda p: (sum(p), p),
    }
    for ea in vecs:
        a, pa = Monomial(ea), padded(ea)
        assert a == Monomial(pa) and hash(a) == hash(Monomial(pa))
        assert a.degree() == sum(pa)
        assert [a.exponent(v) for v in range(width + 1)] == [0, *pa]
        assert Monomial.parse(a.show()) == a
        for eb in vecs:
            b, pb = Monomial(eb), padded(eb)
            divides = all(x <= y for x, y in zip(pa, pb))
            assert a.divides(b) == divides, (ea, eb)
            assert a.mul(b) == Monomial([x + y for x, y in zip(pa, pb)])
            assert a.lcm(b) == Monomial([max(x, y) for x, y in zip(pa, pb)])
            assert a.is_coprime(b) == all(min(x, y) == 0 for x, y in zip(pa, pb))
            if divides:
                assert b.div(a) == Monomial([y - x for x, y in zip(pa, pb)])
            else:
                with pytest.raises(BadParams):
                    b.div(a)
            for order, key in keys.items():
                ref = ref_keys[order]
                assert (key(a) < key(b)) == (ref(pa) < ref(pb)), (order, ea, eb)
                # the Buchberger heap pops the largest monomial first
                assert (_descending(key(a)) < _descending(key(b))) == (ref(pb) < ref(pa))


def test_monomials_of_degree():
    assert monomials_of_degree(2, 0) == (Monomial.one(),)
    assert monomials_of_degree(0, 0) == (Monomial.one(),)
    assert monomials_of_degree(0, 3) == ()
    assert set(monomials_of_degree(2, 2)) == {X2, XY, Y2}
    for nvars in range(5):
        grlex = order_key("grlex", nvars)
        for d in range(5):
            every = {Monomial(e) for e in product(range(d + 1), repeat=nvars) if sum(e) == d}
            assert monomials_of_degree(nvars, d) == tuple(sorted(every, key=grlex, reverse=True))


def test_polynomial_arithmetic():
    F = Q_FIELD
    a = _poly(F, 2, "x1 + x2")
    sq = a.mul(a)
    assert sq == _poly(F, 2, "x1^2 + 2 x1 x2 + x2^2")
    assert sq.total_degree() == 2
    assert Polynomial(F, 2, [*a.terms.items(), *a.scale(F.from_int(-1)).terms.items()]).is_zero()
    b = _poly(GF2_FIELD, 2, "x1 + x2")
    assert b.mul(b) == _poly(GF2_FIELD, 2, "x1^2 + x2^2")


def test_polynomial_show_parse_roundtrip():
    F = Q_FIELD
    for text in ("-x1 + x2", "x1^2 - 2 x1 x2 + 3", "1/2 x1 - x2^3"):
        p = _poly(F, 2, text)
        assert _poly(F, 2, p.show()) == p


def test_leading_and_monic():
    F = Q_FIELD
    key = order_key("grlex", 2)
    p = _poly(F, 2, "2 x1^2 + x2")
    lm, lc = p.leading(key)
    assert lm == X2 and lc == 2
    assert p.monic(key).leading(key)[1] == 1


def test_normal_form():
    F = Q_FIELD
    key = order_key("grlex", 2)
    rem = normal_form(_poly(F, 2, "x1^2"), [_poly(F, 2, "x1 - x2")], key)
    assert rem == _poly(F, 2, "x2^2")
    zero = normal_form(_poly(F, 2, "x1^2 - x2^2"),
                       [_poly(F, 2, "x1 - x2"), _poly(F, 2, "x1 + x2")], key)
    assert zero.is_zero()


def test_groebner_already_reduced_pair():
    F = Q_FIELD
    ideal = Ideal.make(F, 2, [_poly(F, 2, "x1^2 - x2"), _poly(F, 2, "x2^2 - x1")])
    gb = groebner_basis(ideal)
    key = order_key("grlex", 2)
    assert {g.leading(key)[0] for g in gb} == {X2, Y2}
    assert all(g.leading(key)[1] == F.one() for g in gb)
    sm = standard_monomials(gb, 2)
    assert set(sm) == {Monomial.one(), X, Y, XY}
    total, by_degree = quotient_dimension(ideal)
    assert total == 4


def test_groebner_with_nontrivial_spair():
    # x2 = x1^2 and x1 x2 = 1 force x1^3 = 1 in the quotient
    F = GFp(7)
    ideal = Ideal.make(F, 2, [_poly(F, 2, "x1 x2 - 1"), _poly(F, 2, "x1^2 - x2")])
    gb = groebner_basis(ideal)
    key = order_key("grlex", 2)
    assert normal_form(_poly(F, 2, "x1^3 - 1"), gb, key).is_zero()
    assert normal_form(_poly(F, 2, "x2^3 - 1"), gb, key).is_zero()
    not_member = normal_form(_poly(F, 2, "x2^3 - x1"), gb, key)
    assert not_member == _poly(F, 2, "1 - x1")


def test_quotient_dimensions_agree_on_homogeneous_ideal():
    for F in (Q_FIELD, GF2_FIELD, GFp(3)):
        gens = [_poly(F, 2, "x1^2"), _poly(F, 2, "x2^2"), _poly(F, 2, "x1 x2")]
        ideal = Ideal.make(F, 2, gens)
        g_total, g_by_deg = quotient_dimension(ideal)
        m_total, m_by_deg = quotient_dimension_macaulay(ideal)
        assert g_total == m_total == 3
        assert tuple(g_by_deg)[:2] == tuple(m_by_deg)[:2] == (1, 2)


def test_non_artinian_is_refused():
    F = Q_FIELD
    ideal = Ideal.make(F, 2, [_poly(F, 2, "x1^2")])
    with pytest.raises(NotArtinian):
        standard_monomials(groebner_basis(ideal), 2)
    with pytest.raises(NotArtinian):
        quotient_dimension_macaulay(ideal)


def test_basis_kinds():
    # criterion 8's verdict: both dimensions, then independence on both paths
    F = Q_FIELD
    ideal = Ideal.make(F, 2, [_poly(F, 2, "x1^2"), _poly(F, 2, "x2^2")])
    assert quotient_dimension(ideal) == quotient_dimension_macaulay(ideal) == (4, (1, 2, 1))
    good = [Monomial.one(), X, Y, XY]
    for method in METHODS:
        assert monomials_independent_in_quotient(ideal, good, method) == (True, None)
    assert _basis_kind(ideal, good) == "basis"
    assert _basis_kind(ideal, good[:3]) == "not_spanning"  # independent but short
    assert _basis_kind(ideal, good + [X2]) == "wrong_cardinality"
    swapped = [Monomial.one(), X, Y, X2]
    assert _basis_kind(ideal, swapped) == "not_independent"
    assert monomials_independent_in_quotient(ideal, swapped, "both") == (False, X2)


def test_monomials_independent_in_quotient():
    F = GF2_FIELD
    ideal = Ideal.make(F, 2, [_poly(F, 2, "x1^2"), _poly(F, 2, "x2^2")])
    ok, witness = monomials_independent_in_quotient(ideal, [Monomial.one(), X, XY])
    assert ok and witness is None
    ok, witness = monomials_independent_in_quotient(ideal, [X, X2])
    assert not ok and witness == X2


def test_unknown_method_is_refused():
    F = GF2_FIELD
    ideal = Ideal.make(F, 2, [_poly(F, 2, "x1^2"), _poly(F, 2, "x2^2")])
    for method in METHODS:
        assert monomials_independent_in_quotient(ideal, [X, Y], method) == (True, None)
    with pytest.raises(BadParams):
        monomials_independent_in_quotient(ideal, [X, Y], method="bogus")


def test_macaulay_path_refuses_inhomogeneous_generators():
    F = Q_FIELD
    for gens, mons in (
        (["x1^2 - 1"], [Monomial.one(), X2]),  # its constant term has no degree-2 column
        (["x1^2 - x2", "x2^2"], [Monomial.one(), X]),
    ):
        ideal = Ideal.make(F, 2, [_poly(F, 2, g) for g in gens])
        with pytest.raises(BadParams, match="homogeneous"):
            monomials_independent_in_quotient(ideal, mons)
        with pytest.raises(BadParams, match="homogeneous"):
            quotient_dimension_macaulay(ideal)


def _brute_staircase(gb, nvars, order):
    """Every point of an exponent box that no lead divides, ascending; the
    box reaches past every lead, so it holds every standard monomial of an
    Artinian quotient.  Shares no code with the staircase walk."""
    key = order_key(order, nvars)
    leads = [g.leading(key)[0] for g in gb]
    top = max((m.degree() for m in leads), default=0)
    box = (Monomial(e) for e in product(range(top + 1), repeat=nvars))
    return tuple(sorted((m for m in box if not any(l.divides(m) for l in leads)), key=key))


def _dfs_staircase(gens, nvars):
    """The lexicographic depth-first staircase walk that staircase_levels
    replaced, kept as its oracle: x1, x2, ... are set in turn, and the loop
    at xv ends at the first exponent that a generator ending at xv divides."""
    mins: list = []
    for g in sorted(set(gens), key=Monomial.degree):
        if len(g.exps) > nvars:
            raise BadParams(f"monomial {g.show()} uses a variable beyond x{nvars}")
        if not any(m.divides(g) for m in mins):
            mins.append(g)
    upper = frozenset(mins)
    if mins and not mins[0].exps:
        return upper, frozenset()
    at: list = [[] for _ in range(nvars + 1)]
    for g in mins:
        at[len(g.exps)].append((g.exps[-1], g.exps[:-1]))
    for v in range(1, nvars + 1):
        if all(any(rest) for _, rest in at[v]):
            raise NotArtinian(f"no pure power of x{v} among the generators")
    out = []

    def rec(prefix: tuple):
        v = len(prefix) + 1
        stop = min(a for a, rest in at[v] if all(map(le, rest, prefix)))
        if v == nvars:
            out.extend(Monomial(prefix + (a,)) for a in range(stop))
        else:
            for a in range(stop):
                rec(prefix + (a,))

    if nvars:
        rec(())
    else:
        out.append(Monomial.one())
    return upper, frozenset(out)


def _random_monomial_ideal(rng, nvars):
    """Seeded generators in nvars variables: usually a pure power of every
    variable, sometimes not (not Artinian), now and then the unit or a
    monomial in x(nvars+1).  Exponents stay small enough for the box."""
    top = 3 if nvars > 4 else 4
    gens = [
        Monomial.variable(v, rng.randint(1, top))
        for v in range(1, nvars + 1)
        if rng.random() < 0.97
    ]
    for _ in range(rng.randint(0, 6) if nvars else 0):
        exps = [0] * nvars
        for _ in range(rng.randint(1, top)):
            exps[rng.randrange(nvars)] += 1
        gens.append(Monomial(exps))
    if rng.random() < 0.05:
        gens.append(Monomial.one())
    if rng.random() < 0.05:
        gens.append(Monomial.variable(nvars + 1))
    rng.shuffle(gens)
    return gens


def _outcome(walk, gens, nvars):
    try:
        return walk(gens, nvars)
    except (BadParams, NotArtinian) as exc:
        return (type(exc).__name__, str(exc))


def test_staircase_matches_the_dfs_walk_and_the_box():
    # the degree-by-degree walk against the walk it replaced, and its members
    # against every point of a box that no generator divides
    rng = random.Random("staircase-levels")
    kinds = set()
    for i in range(360):
        nvars = i % 7
        gens = _random_monomial_ideal(rng, nvars)
        got = _outcome(staircase, gens, nvars)
        assert got == _outcome(_dfs_staircase, gens, nvars), (nvars, gens)
        if isinstance(got[0], str):
            kinds.add(got[0])
            continue
        kinds.add("unit" if not got[1] else "finite")
        leads = [Polynomial(GF2_FIELD, nvars, {g: GF2_FIELD.one()}) for g in gens]
        assert got[1] == frozenset(_brute_staircase(leads, nvars, "grlex")), (nvars, gens)
    assert kinds == {"finite", "unit", "BadParams", "NotArtinian"}


def test_staircase_levels_hold_one_degree_each():
    # x1^2, x1 x2, x2^3: 1 | x1 x2 | x2^2
    levels = [sorted(level) for level in staircase_levels([(2, 0), (1, 1), (0, 3)], 2)]
    assert levels == [[(0, 0)], [(0, 1), (1, 0)], [(0, 2)]]
    assert list(staircase_levels([(0, 0), (1, 0)], 2)) == []
    assert [list(level) for level in staircase_levels([], 0)] == [[()]]


def test_standard_monomials_edge_cases():
    F = Q_FIELD
    unit = groebner_basis(Ideal.make(F, 2, [_poly(F, 2, "x1 + 1"), _poly(F, 2, "x1")]))
    assert standard_monomials(unit, 2) == ()
    assert standard_monomials((), 0) == (Monomial.one(),)
    assert standard_monomials((Polynomial.constant(F, 0, F.one()),), 0) == ()
    with pytest.raises(NotArtinian, match=r"of x1 "):
        standard_monomials((), 2)
    with pytest.raises(NotArtinian, match=r"of x2 "):
        standard_monomials(groebner_basis(Ideal.make(F, 2, [_poly(F, 2, "x1^2")])), 2)
    # a lead in x3 is refused, not read as the unit ideal in two variables
    three = groebner_basis(Ideal.make(F, 3, [_poly(F, 3, "x1^2"), _poly(F, 3, "x2^2"), _poly(F, 3, "x3")]))
    with pytest.raises(BadParams):
        standard_monomials(three, 2)


def test_minimal_generators():
    # the minimal generators of x1^2, x1^2 x2, x1 x2, x1^2 x2^2 are x1^2 and
    # x1 x2; with x2^2 added the monomials below them are 1, x1 and x2
    with pytest.raises(NotArtinian, match=r"of x2 "):
        staircase(map(Monomial, [(2, 0), (2, 1), (1, 1), (2, 2)]), 2)
    assert staircase(map(Monomial, [(2, 0), (2, 1), (1, 1), (2, 2), (0, 2), (1, 1)]), 2) == (
        frozenset({X2, XY, Y2}), frozenset({Monomial.one(), X, Y}))


def _to_sympy(p, xs, sympy):
    total = sympy.Integer(0)
    for mono, coeff in p.terms.items():
        term = sympy.Rational(p.field.show(coeff))
        for v, a in enumerate(mono.exps, 1):
            term *= xs[v - 1] ** a
        total += term
    return sympy.expand(total)


def test_groebner_matches_independent_library():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2026)
    F = Q_FIELD
    trials = 0
    while trials < 12:
        nvars = rng.choice((2, 3))
        gens = []
        for v in range(1, nvars + 1):
            if rng.random() < 0.7:
                power = Monomial.variable(v, rng.randint(1, 3))
                gens.append(Polynomial(F, nvars, {power: F.one()}))
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for mono in monomials_of_degree(nvars, rng.randint(1, 2)):
                c = rng.randint(-2, 2)
                if c:
                    terms[mono] = F.from_int(c)
            if terms:
                gens.append(Polynomial(F, nvars, terms))
        if not gens:
            continue
        trials += 1
        order = rng.choice(("grlex", "lex"))
        ours = groebner_basis(Ideal.make(F, nvars, gens), order)
        xs = sympy.symbols(f"x1:{nvars + 1}")
        theirs = sympy.groebner(
            [_to_sympy(p, xs, sympy) for p in gens], *xs, order=order
        )
        # reduced Groebner bases are unique for a fixed order once made monic
        # (sympy scales to primitive integer coefficients instead)
        monic = {
            sympy.expand(e / sympy.LC(e, *xs, order=order))
            for e in theirs.exprs
        }
        assert {_to_sympy(p, xs, sympy) for p in ours} == monic, order
    # the lsop ideals the oracle serves: every named fixture over gf2 and q
    for name in list_named():
        m = named_matroid(name)
        for F in (GF2_FIELD, Q_FIELD):
            ideal = lsop(m, standard_ordering_at(m, 0), F).ideal
            xs = sympy.symbols(f"x1:{ideal.nvars + 1}")
            opts = {"modulus": 2} if F is GF2_FIELD else {}
            theirs = sympy.groebner(
                [_to_sympy(p, xs, sympy) for p in ideal.generators], *xs, order="grlex", **opts
            )
            monic = {
                sympy.Poly(e / sympy.LC(e, *xs, order="grlex"), *xs, **opts)
                for e in theirs.exprs
            }
            ours = groebner_basis(ideal)
            assert {sympy.Poly(_to_sympy(p, xs, sympy), *xs, **opts) for p in ours} == monic, name


def test_groebner_basis_shares_equal_terms():
    m = named_matroid("k33")
    for F in (GF2_FIELD, Q_FIELD):
        gb = groebner_basis(lsop(m, standard_ordering_at(m, 0), F).ideal)
        terms = [t for g in gb for t in g.terms.items()]
        for part in (0, 1):
            values = [t[part] for t in terms]
            assert len({id(x) for x in values}) == len(set(values))
        assert len(terms) > len({mono for mono, _ in terms})  # some monomial repeats


def test_groebner_method_computes_the_basis_once(monkeypatch):
    import matroidlab.polynomials as poly

    calls = []

    def counted(ideal, order="grlex"):
        calls.append(order)
        return groebner_basis(ideal, order)

    monkeypatch.setattr(poly, "groebner_basis", counted)
    F = Q_FIELD
    ideal = Ideal.make(F, 2, [_poly(F, 2, "x1^2"), _poly(F, 2, "x2^2")])
    short = [Monomial.one(), X, Y]
    assert monomials_independent_in_quotient(ideal, short, "groebner") == (True, None)
    assert calls == ["grlex"]
    # a basis passed in is used as it is
    gb = groebner_basis(ideal)
    calls.clear()
    assert monomials_independent_in_quotient(ideal, [X, X2], "groebner", gb) == (False, X2)
    assert calls == []


def _random_homogeneous_ideal(rng, field, nvars):
    gens = [
        Polynomial(field, nvars, {Monomial.variable(v, rng.randint(1, 3)): field.one()})
        for v in range(1, nvars + 1)
    ]
    for _ in range(rng.randint(0, 3)):
        d = rng.randint(1, 3)
        terms = {m: field.from_int(rng.randint(-2, 2)) for m in monomials_of_degree(nvars, d)}
        gens.append(Polynomial(field, nvars, terms))
    return Ideal.make(field, nvars, gens)


RATIONALS = tuple(Fraction(t) for t in ("1/2", "-3/5", "2/7", "-1", "5/3", "-7/4", "10000000000000000000/3"))


def test_macaulay_and_groebner_agree_on_rational_coefficients():
    # most coefficients are not integers, so the Macaulay rows have their
    # denominators cleared before they are reduced; the last generator is a
    # rational combination of two others, which only exact rows keep in
    # their span
    rng = random.Random("paths:rational")
    outcomes = set()
    for _ in range(40):
        nvars, d = rng.randint(2, 3), rng.randint(2, 3)
        gens = [
            Polynomial(Q_FIELD, nvars, {Monomial.variable(v, 3): rng.choice(RATIONALS)})
            for v in range(1, nvars + 1)
        ]
        for _ in range(2):
            mons = rng.sample(monomials_of_degree(nvars, d), 3)
            gens.append(Polynomial(Q_FIELD, nvars, {m: rng.choice(RATIONALS) for m in mons}))
        a, b = gens[-2:]
        a, b = a.scale(rng.choice(RATIONALS)), b.scale(rng.choice(RATIONALS))
        gens.append(Polynomial(Q_FIELD, nvars, [*a.terms.items(), *b.terms.items()]))
        ideal = Ideal.make(Q_FIELD, nvars, gens)
        assert quotient_dimension_macaulay(ideal) == quotient_dimension(ideal)
        pool = [m for e in range(4) for m in monomials_of_degree(nvars, e)]
        for _ in range(3):
            cand = rng.sample(pool, rng.randint(1, min(len(pool), 6)))
            mac = monomials_independent_in_quotient(ideal, cand, "macaulay")
            assert mac == monomials_independent_in_quotient(ideal, cand, "groebner")
            outcomes.add(mac[0])
    assert outcomes == {True, False}


@pytest.mark.parametrize("field", (GF2_FIELD, GFp(3), Q_FIELD), ids=lambda F: F.name)
def test_macaulay_and_groebner_paths_agree(field):
    rng = random.Random(f"paths:{field.name}")
    kinds = set()
    for _ in range(40):
        nvars = rng.randint(1, 3)
        ideal = _random_homogeneous_ideal(rng, field, nvars)
        gb = groebner_basis(ideal)
        std = list(standard_monomials(gb, nvars))
        assert tuple(std) == _brute_staircase(gb, nvars, "grlex")
        lex = groebner_basis(ideal, "lex")
        assert standard_monomials(lex, nvars, "lex") == _brute_staircase(lex, nvars, "lex")
        pick = rng.random()
        if pick < 0.3:
            cand = std
        elif pick < 0.5:
            cand = rng.sample(std, len(std) - 1) or [Monomial.one()]
        else:
            pool = [m for d in range(4) for m in monomials_of_degree(nvars, d)]
            cand = rng.sample(pool, rng.randint(1, min(len(pool), len(std) + 1)))
        kind = _basis_kind(ideal, cand)
        assert quotient_dimension_macaulay(ideal) == quotient_dimension(ideal)
        # both paths give the same first dependent monomial
        ok, wit = monomials_independent_in_quotient(ideal, cand)
        assert normal_form_span(ideal, gb, cand) == wit
        assert monomials_independent_in_quotient(ideal, cand, "groebner", gb) == (ok, wit)
        assert monomials_independent_in_quotient(ideal, cand, "both") == (ok, wit)
        if kind == "not_independent":
            assert not ok
        elif kind != "wrong_cardinality":
            assert ok and wit is None
            assert (kind == "basis") == (len(cand) == len(std))
        kinds.add(kind)
    assert kinds == {"basis", "not_independent", "not_spanning", "wrong_cardinality"}
