"""Spectral oracles: monomial characters and pullback traces."""

import dataclasses
from fractions import Fraction

import pytest

from orbindex.errors import DomainError
from orbindex.exactnum import Cyclo
from orbindex.oracle import (
    elliptic_pullback_character,
    sphere_equivariant_character,
    sphere_invariant_monomial_count,
    torus_invariant_index,
)
from orbindex.sectors import square_torus_rotation_model


class TestSphereCharacter:
    def test_identity_power_counts_dimension(self):
        assert sphere_equivariant_character(7, 3, 0).value == 8

    def test_average_over_group_counts_invariants(self):
        n, k = 3, 7
        total = Cyclo.from_rational(0, n)
        for j in range(n):
            total = total + sphere_equivariant_character(k, n, j).value
        assert total == 3 * sphere_invariant_monomial_count(k, n).value

    def test_order_two_alternating(self):
        assert sphere_equivariant_character(1, 2, 1).value == 0

    def test_multiplicativity_on_commuting_powers(self):
        # the character is a function of j m mod n, so characters at j1 and j2
        # with j1 + j2 = j compose through the monomial grading
        n, k = 6, 4
        for j1 in range(n):
            for j2 in range(n):
                j = (j1 + j2) % n
                z = sphere_equivariant_character(k, n, j).value
                direct = Cyclo.from_rational(0, n)
                for m in range(k + 1):
                    direct = direct + Cyclo.unit(Fraction(j1 * m, n), n) \
                        * Cyclo.unit(Fraction(j2 * m, n), n)
                assert direct == z

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sphere_equivariant_character(-1, 3, 0)
        with pytest.raises(DomainError):
            sphere_equivariant_character(101, 3, 0)
        with pytest.raises(DomainError):
            sphere_equivariant_character(5, 25, 0)
        with pytest.raises(DomainError):
            sphere_equivariant_character(5, 3, 3)


class TestEllipticCharacter:
    def test_quarter_turn(self):
        v = elliptic_pullback_character(Fraction(1, 4)).value
        assert v == 1 + Cyclo.zeta(4)

    def test_half_turn(self):
        assert elliptic_pullback_character(Fraction(1, 2)).value == 2

    def test_identity(self):
        assert elliptic_pullback_character(Fraction(0)).value == 0

    def test_sixth_turn_allowed_fifth_rejected(self):
        elliptic_pullback_character(Fraction(1, 6))
        with pytest.raises(DomainError):
            elliptic_pullback_character(Fraction(1, 5))


class TestTorusInvariantIndex:
    def test_z4(self):
        assert torus_invariant_index(square_torus_rotation_model(4, "m")).value == 1

    def test_z2(self):
        assert torus_invariant_index(square_torus_rotation_model(2, "m")).value == 1

    def test_trivial_group(self):
        assert torus_invariant_index(square_torus_rotation_model(1, "m")).value == 0

    def test_twist_rejected(self):
        from orbindex.sectors import BundleSpec

        model = dataclasses.replace(square_torus_rotation_model(1, "m"),
                                    bundle=BundleSpec("dolbeault", 3))
        with pytest.raises(DomainError):
            torus_invariant_index(model)


def test_oracle_determinism():
    a = sphere_equivariant_character(9, 4, 3)
    b = sphere_equivariant_character(9, 4, 3)
    assert a.value == b.value and a.method == b.method
