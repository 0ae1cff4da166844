"""Exact cyclotomic arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbindex.exactnum import Cyclo, Scalars, cyclotomic_polynomial, scalars_for_order


def test_cyclotomic_polynomials():
    assert list(cyclotomic_polynomial(1)) == [-1, 1]
    assert list(cyclotomic_polynomial(4)) == [1, 0, 1]
    assert list(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]


def test_gaussian_field():
    i = Cyclo.zeta(4)
    assert i * i == -1
    assert (1 - i).inverse() == (1 + i) / 2
    assert (3 - 4 * i) * (3 + 4 * i) == 25


def test_root_relations():
    for n in (3, 6, 8, 12):
        z = Cyclo.zeta(n)
        assert z ** n == 1
        total = Cyclo.from_rational(0, n)
        for k in range(n):
            total = total + z ** k
        assert total.is_zero()


def test_field_inverse_random():
    rng = random.Random(4)
    for n in (4, 12):
        for _ in range(50):
            c = Cyclo(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                          for _ in range(4)])
            if c.is_zero():
                continue
            assert c * c.inverse() == 1


def test_cross_order_promotion():
    i = Cyclo.zeta(4)
    z3 = Cyclo.zeta(3)
    w = i * z3
    assert w == Cyclo.zeta(12, 7)  # e^{2 pi i (1/4 + 1/3)}
    assert abs(w.to_complex() - (1j * z3.to_complex())) < 1e-14


def test_conjugation_and_reality():
    i = Cyclo.zeta(4)
    assert i.conjugate() == -i
    v = (1 + i) / 8 + (1 - i) / 8
    assert v.is_real() and v == Fraction(1, 4)


def test_to_complex_exact_rational_parts():
    i = Cyclo.zeta(4)
    assert (1 - i).to_complex() == 1 - 1j
    z = (1 + Cyclo.zeta(3)).to_complex()
    assert z.real == 0.5
    assert abs(z.imag - math.sqrt(3) / 2) < 1e-14


def test_integrality_detection():
    i = Cyclo.zeta(4)
    assert ((1 + i) * (1 - i)).is_integer()
    assert not ((1 + i) / 8).is_integer()


def test_scalars_contexts():
    ex = scalars_for_order(3)
    assert ex.order == 12
    v = ex.unit(Fraction(1, 3))
    assert v == Cyclo.zeta(3).promote(12)
    fl = Scalars("float")
    assert abs(fl.unit(Fraction(1, 4)) - 1j) < 1e-15
    assert fl.is_zero(1e-20, 1e-12)
    assert ex.is_zero(ex.zero())
    with pytest.raises(ValueError):
        Scalars("bogus")


def test_unit_rejects_incompatible_order():
    with pytest.raises(ValueError):
        Cyclo.unit(Fraction(1, 3), order=4)


ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from(ORDERS), data=st.data(),
       widen=st.lists(st.sampled_from((1, 2, 3, 5)), min_size=2, max_size=2))
def test_equal_values_hash_equal_across_orders(base, data, widen):
    # one combination of base-th roots of unity, built in two fields
    terms = data.draw(st.lists(
        st.tuples(st.fractions(-3, 3, max_denominator=4), st.integers(0, base - 1)),
        max_size=4))
    x, y = (sum((Cyclo.unit(Fraction(k, base), base * m) * c for c, k in terms),
                Cyclo.from_rational(0, base * m)) for m in widen)
    assert x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1
    if x.is_rational():
        assert hash(x) == hash(x.rational_value())


def test_promoted_root_is_one_set_element():
    i = Cyclo.zeta(4, 1)
    assert hash(i) == hash(i.promote(12)) == hash(Cyclo.zeta(12, 3))
    assert len({i, i.promote(12), Cyclo.zeta(12, 3)}) == 1
    assert hash(Cyclo.from_rational(Fraction(2, 3), 12)) == hash(Fraction(2, 3))
