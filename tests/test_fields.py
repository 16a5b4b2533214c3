import time
from fractions import Fraction

import pytest

from matroidlab.errors import BadParams
from matroidlab.fields import GF2_FIELD, GFp, Q_FIELD, field_from_name


def test_gf2_arithmetic():
    F = GF2_FIELD
    assert F.add(1, 1) == 0
    assert F.sub(0, 1) == 1
    assert F.mul(1, 1) == 1
    assert F.neg(1) == 1
    assert F.inv(1) == 1
    assert F.div(1, 1) == 1
    assert F.from_int(7) == 1
    assert F.from_int(-2) == 0
    assert F.char == 2 and F.name == "gf2"


def test_gf2_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GF2_FIELD.inv(0)


def test_gfp_arithmetic():
    F = GFp(5)
    assert F.name == "gf5" and F.char == 5
    assert F.add(3, 4) == 2
    assert F.sub(1, 3) == 3
    assert F.mul(3, 4) == 2
    assert F.neg(2) == 3
    for a in range(1, 5):
        assert F.mul(a, F.inv(a)) == 1
    assert F.from_int(-1) == 4


def test_gfp_rejects_composite_modulus():
    # 2047 and 3215031751 are strong pseudoprimes to small bases, 561 is a
    # Carmichael number, and 2^64 + 13 is the least prime above 2^64
    for n in (6, 1, 2047, 561, 3215031751, 2**61 + 1, 2**64 + 13):
        with pytest.raises(BadParams):
            GFp(n)
    for p in (2, 3, 37, 41, 2**31 - 1, 2**64 - 59):
        assert GFp(p).p == p
    with pytest.raises(BadParams):
        field_from_name("gf" + "7" * 5000)  # too long for int() to parse
    start = time.perf_counter()
    GFp(2**61 - 1)
    assert time.perf_counter() - start < 0.01


def test_rational_arithmetic():
    F = Q_FIELD
    third = F.div(F.one(), F.from_int(3))
    assert third == Fraction(1, 3)
    assert F.add(third, third) == Fraction(2, 3)
    assert F.sub(F.one(), third) == Fraction(2, 3)
    assert F.neg(third) == Fraction(-1, 3)
    assert F.mul(third, F.from_int(3)) == 1
    assert F.show(Fraction(3, 1)) == "3"
    assert F.show(Fraction(-1, 2)) == "-1/2"
    assert F.parse("2/7") == Fraction(2, 7)


def test_field_equality_is_by_name():
    assert GFp(3) == GFp(3)
    assert GFp(3) != GFp(5)
    assert GF2_FIELD != Q_FIELD
    assert hash(GFp(3)) == hash(GFp(3))


def test_field_from_name():
    assert field_from_name("gf2") is GF2_FIELD
    assert field_from_name("Q") is Q_FIELD
    assert field_from_name("rational") is Q_FIELD
    assert field_from_name("gf7").char == 7
    with pytest.raises(BadParams):
        field_from_name("gf4")
    with pytest.raises(BadParams):
        field_from_name("f2")
