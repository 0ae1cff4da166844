"""Exact cyclotomic arithmetic."""

import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from orbindex.exactnum import Cyclo, Scalars, cyclotomic_polynomial


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
    ex = Scalars("exact", 12)
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


def _over_divisor_by_inverse(twist, normal, order):
    """e^{2 pi i twist} / (1 - e^{-2 pi i normal}) through the field inverse."""
    return Cyclo.unit(twist, order) / (Cyclo.from_rational(1, order) - Cyclo.unit(-normal, order))


@pytest.mark.parametrize("order", [4, 8, 12, 20, 28])
def test_unit_over_divisor_matches_the_field_inverse(order):
    for n in range(1, order):
        for t in range(order):
            twist, normal = Fraction(t, order), Fraction(n, order)
            got = Cyclo.unit_over_divisor(twist, normal, order)
            want = _over_divisor_by_inverse(twist, normal, order)
            assert (got.den, got.num) == (want.den, want.num), (twist, normal)


def test_unit_over_divisor_matches_the_field_inverse_up_to_order_92():
    rng = random.Random(92)
    for _ in range(300):
        order = rng.choice([92, rng.randint(2, 92)])
        # angles of any field inside Q(zeta_order), outside [0, 1) as well
        m = rng.choice([d for d in range(2, order + 1) if order % d == 0])
        normal = Fraction(rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1]), m) \
            + rng.randint(-2, 2)
        twist = Fraction(rng.randint(-2 * order, 2 * order), order)
        got = Cyclo.unit_over_divisor(twist, normal, order)
        want = _over_divisor_by_inverse(twist, normal, order)
        assert (got.den, got.num) == (want.den, want.num), (order, twist, normal)


@pytest.mark.parametrize("twist, normal, order, error", [
    (0, 0, 4, ZeroDivisionError),                            # 1 - 1 = 0
    (Fraction(1, 4), 3, 12, ZeroDivisionError),              # a whole turn
    (Fraction(1, 4), Fraction(1, 3), 4, ValueError),         # normal outside Q(i)
    (Fraction(1, 3), Fraction(1, 4), 4, ValueError),         # twist outside Q(i)
    (Fraction(1, 5), 0, 4, ValueError),                      # the field is checked first
])
def test_unit_over_divisor_errors_match_the_field_inverse(twist, normal, order, error):
    with pytest.raises(error):
        Cyclo.unit_over_divisor(twist, normal, order)
    with pytest.raises(error):
        _over_divisor_by_inverse(twist, normal, order)


def test_float_unit_over_divisor_keeps_the_division():
    fl = Scalars("float")
    for t, n in ((Fraction(0), Fraction(1, 4)), (Fraction(2, 3), Fraction(5, 12)),
                 (Fraction(1, 23), Fraction(22, 23))):
        assert fl.unit_over_divisor(t, n) == fl.unit(t) / (fl.one() - fl.unit(-n))


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


# -- the Fraction-polynomial arithmetic that Cyclo replaced, kept as a reference

def _ref_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _ref_trim(out)


def _ref_divmod(a, b):
    b = _ref_trim(list(b))
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = _ref_trim(list(a))
    while len(r) >= len(b):
        shift = len(r) - len(b)
        coeff = r[-1] / b[-1]
        q[shift] = coeff
        for j, bj in enumerate(b):
            r[shift + j] -= coeff * bj
        r = _ref_trim(r)
    return _ref_trim(q), r


@lru_cache(maxsize=None)
def _ref_phi(n):
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = _ref_mul(den, list(_ref_phi(d)))
    return tuple(_ref_divmod(num, den)[0])


@lru_cache(maxsize=None)
def _ref_powers(n):
    """zeta^k reduced mod Phi_n, for k = 0 .. n-1."""
    phi, out, cur = list(_ref_phi(n)), [], [Fraction(1)]
    for _ in range(n):
        out.append(cur + [Fraction(0)] * (len(phi) - 1 - len(cur)))
        cur = _ref_divmod(_ref_mul(cur, [Fraction(0), Fraction(1)]), phi)[1]
    return out


class RefCyclo:
    """Q(zeta_N) as Fraction coefficients reduced mod Phi_N, by polynomial divmod."""

    def __init__(self, order, coeffs):
        self.order, self.phi = order, list(_ref_phi(order))
        c = [Fraction(x) for x in coeffs]
        if len(c) >= len(self.phi):
            c = _ref_divmod(c, self.phi)[1]
        self.coeffs = tuple(c + [Fraction(0)] * (len(self.phi) - 1 - len(c)))

    def _substitute(self, order, index):
        out = [Fraction(0)] * (len(_ref_phi(order)) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(_ref_powers(order)[index(i) % order]):
                out[j] += a * b
        return RefCyclo(order, out)

    def promote(self, order):
        return self._substitute(order, lambda i: i * (order // self.order))

    def _match(self, other):
        if not isinstance(other, RefCyclo):
            other = RefCyclo(1, [other])
        n = math.lcm(self.order, other.order)
        return self.promote(n), other.promote(n)

    def __add__(self, other):
        a, b = self._match(other)
        return RefCyclo(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other):
        a, b = self._match(other)
        return RefCyclo(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __mul__(self, other):
        if not isinstance(other, RefCyclo):
            return RefCyclo(self.order, [x * other for x in self.coeffs])
        a, b = self._match(other)
        return RefCyclo(a.order, _ref_mul(list(a.coeffs), list(b.coeffs)))

    def inverse(self):
        # extended Euclid in Q[x]; invariant r_i = s_i * self (mod Phi_N)
        r0, r1 = list(self.phi), _ref_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _ref_divmod(r0, r1)
            qs = _ref_mul(q, s1)
            width = max(len(s0), len(qs))
            s_next = _ref_trim([(s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)
                                for i in range(width)])
            r0, r1, s0, s1 = r1, r, s1, s_next
        return RefCyclo(self.order, [x / r1[0] for x in s1])

    def __truediv__(self, other):
        if not isinstance(other, RefCyclo):
            return RefCyclo(self.order, [x / other for x in self.coeffs])
        a, b = self._match(other)
        return a * b.inverse()

    def conjugate(self):
        return self._substitute(self.order, lambda i: -i)

    def real_imag_parts(self):
        n = math.lcm(4, self.order)
        z = self.promote(n)
        conj = z.conjugate()
        return (z + conj) / 2, (z - conj) * RefCyclo(n, _ref_powers(n)[3 * n // 4]) / 2

    def to_complex(self):
        parts = []
        for part in self.real_imag_parts():
            if all(x == 0 for x in part.coeffs[1:]):
                parts.append(float(part.coeffs[0]))
            else:
                root, acc = cmath.exp(2j * math.pi / part.order), 0j
                for a in reversed(part.coeffs):
                    acc = acc * root + complex(a)
                parts.append(acc.real)
        return complex(*parts)


REFERENCE_ORDERS = (1, 2, 3, 4, 5, 6, 12, 20, 24, 28)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("order", REFERENCE_ORDERS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_arithmetic_matches_the_fraction_reference(order, data):
    coeff = st.fractions(-5, 5, max_denominator=6)
    sub = data.draw(st.sampled_from([d for d in REFERENCE_ORDERS if order % d == 0]))
    up = data.draw(st.sampled_from([m for m in REFERENCE_ORDERS if m % order == 0]))
    xs = data.draw(st.lists(coeff, max_size=len(_ref_phi(order)) - 1))
    ys = data.draw(st.lists(coeff, max_size=len(_ref_phi(sub)) - 1))
    r = data.draw(coeff)
    x, rx = Cyclo(order, xs), RefCyclo(order, xs)
    y, ry = Cyclo(sub, ys), RefCyclo(sub, ys)
    pairs = [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (x * r, rx * r),
             (r + x, rx + r), (x.conjugate(), rx.conjugate()), (x.promote(up), rx.promote(up)),
             *zip(x.real_imag_parts(), rx.real_imag_parts())]
    if not y.is_zero():
        pairs += [(x / y, rx / ry), (y.inverse(), ry.inverse())]
    if r:
        pairs.append((x / r, rx / r))
    for got, want in pairs:
        assert (got.order, got.coeffs) == (want.order, want.coeffs)
    for got, want in ((x, rx), (y, ry), (x * y, rx * ry)):
        assert _bits(got.to_complex()) == _bits(want.to_complex())
