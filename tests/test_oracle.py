"""Spectral oracles: monomial characters and pullback traces."""

import dataclasses
import io
import json
from fractions import Fraction

import pytest

from orbindex.cli import FIXTURE_DIR, run_command
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
            sphere_equivariant_character(-101, 3, 0)
        with pytest.raises(DomainError):
            sphere_equivariant_character(101, 3, 0)
        with pytest.raises(DomainError):
            sphere_equivariant_character(5, 25, 0)
        with pytest.raises(DomainError):
            sphere_equivariant_character(5, 3, 3)

    @pytest.mark.parametrize("n, k, index, lefschetz", [
        (3, -4, -1, [-3, 0, 0]),
        (2, -2, 0, [-1, 1]),
        (3, -1, 0, [0, 0, 0]),
    ])
    def test_negative_twist_hand_values(self, tmp_path, n, k, index, lefschetz):
        # H^1(O(k)) has the Cech basis z^m, k+1 <= m <= -1, counted with sign -1
        assert sphere_invariant_monomial_count(k, n).value == index
        assert [sphere_equivariant_character(k, n, j).value for j in range(n)] == lefschetz
        doc = json.loads((FIXTURE_DIR / "s2_z3_o7.json").read_text())
        doc["group"]["order"], doc["bundle"]["twistDegree"] = n, k
        path = tmp_path / "sphere.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        assert run_command(["verify", str(path)], out) == 0
        assert json.loads(out.getvalue())["totals"]["oracle"] == [str(index), "0"]

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
