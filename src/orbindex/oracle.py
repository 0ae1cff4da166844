"""Brute-force equivariant index oracles from explicit section bases.

These never touch the characteristic-class or index machinery: every value
comes from counting monomials or tracing a pullback on an explicit basis, so
agreement with the engine is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .exactnum import Cyclo, Scalars
from .groups import IDENTITY_MAT, TorusAction
from .sectors import QuotientModel

MAX_TWIST = 100
MAX_ORDER = 24


@dataclass(frozen=True)
class OracleResult:
    value: object
    method: str
    basis: str


def _sphere_basis(k: int) -> tuple[int, range]:
    """(sign, exponents m) of the monomial basis z^m of the cohomology of O(k).

    For k >= 0 the sections are spanned by z^m, 0 <= m <= k, and H^1 vanishes.
    For k < 0 the sections vanish and H^1 has the Cech basis z^m,
    k + 1 <= m <= -1, on the overlap of the two charts; by Serre duality it is
    the dual of H^0(O(-k-2)).  It enters the index with sign -1.
    """
    return (1, range(k + 1)) if k >= 0 else (-1, range(k + 1, 0))


def sphere_equivariant_character(k: int, n: int, j: int, mode: str = "exact") -> OracleResult:
    """Supertrace of the j-th rotation power on the degree-k monomial basis.

    The rotation multiplies z^m by zeta^{jm}; the H^1 basis of a negative
    twist counts with sign -1.  Exactly, the supertrace is the sum over r of
    zeta^r times the signed count of exponents m with j m = r mod n.
    """
    if abs(k) > MAX_TWIST or n > MAX_ORDER:
        raise DomainError("oracle degree bounds exceeded (|k| <= 100, n <= 24)")
    if n < 1 or not (0 <= j < n):
        raise DomainError("rotation power outside the group")
    sign, exponents = _sphere_basis(k)
    basis = f"z^m, {exponents.start} <= m <= {exponents.stop - 1}"
    if mode == "exact":
        counts = [0] * n
        for m in exponents:
            counts[j * m % n] += sign
        return OracleResult(Cyclo(n, counts), "monomial-character", basis)
    sc = Scalars(mode, n)
    total = sc.zero()
    for m in exponents:
        total = total + sc.unit(Fraction(j * m, n))
    return OracleResult(total if sign > 0 else -total, "monomial-character", basis)


def sphere_invariant_monomial_count(k: int, n: int) -> OracleResult:
    """Index of the invariant part: signed count of basis monomials z^m with
    n | m."""
    if abs(k) > MAX_TWIST or n < 1 or n > MAX_ORDER:
        raise DomainError("oracle degree bounds exceeded")
    sign, exponents = _sphere_basis(k)
    count = sign * sum(1 for m in exponents if m % n == 0)
    return OracleResult(count, "monomial-count", f"z^m with {n} | m")


def elliptic_pullback_character(turns: Fraction, mode: str = "exact") -> OracleResult:
    """Pullback supertrace of a lattice rotation on the basis {1}, {dzbar}.

    The rotation z -> e^{2 pi i t} z pulls dzbar back to e^{-2 pi i t} dzbar,
    so the supertrace is 1 - e^{-2 pi i t}; only crystallographic angles
    preserve a lattice.
    """
    t = Fraction(turns) % 1
    if t.denominator not in (1, 2, 3, 4, 6):
        raise DomainError("rotation does not preserve any plane lattice")
    sc = Scalars(mode, t.denominator)
    value = sc.one() - sc.unit(-t)
    return OracleResult(value, "pullback-character", "{1} and {dzbar}")


def torus_invariant_index(model: QuotientModel) -> OracleResult:
    """dim of invariant degree-0 sections minus invariant (0,1)-forms.

    On any flat torus the relevant bases are the constants and {dzbar}: a
    Fourier mode with nonzero frequency is never invariant under the lattice
    of translations implicit in the torus, so only the constant survives in
    degree 0, and dzbar transforms by the rotation angle.
    """
    if not isinstance(model.group, TorusAction):
        raise DomainError("oracle expects a finite torus action")
    if model.bundle.spin or model.bundle.twist_degree != 0:
        raise DomainError("oracle supports untwisted dolbeault only")
    action = model.group
    h0 = 1  # constants are invariant under any affine isometry
    h01 = 1 if action.point_parts == (IDENTITY_MAT,) else 0
    return OracleResult(h0 - h01, "fourier-invariants", "constants and {dzbar}")
