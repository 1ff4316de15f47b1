"""Alternative division polynomials g_k over L and their Newton polygons.

g_k(x) = x**(p**2k) + sum_{n=1..k} (-1)**n p**n (x**(p**(2k-2n))
         + alpha**-1 pi_e**2 x**(p**(2k+1-2n)))

is the gamma-shift-0 member of its family; the root-valuation partition is
shift-independent, so this member is the only one built.  When alpha**-1 = 0
the odd-exponent terms vanish and g_k degenerates to the CM polynomial
x**(p**2k) - p x**(p**(2k-2)) + ... with support only at even powers of p.

Polynomials are kept sparse: degrees reach p**(2k), so dense storage is out
of the question.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .curve import check_supersingular, normalized_shape
from .eisenstein import EisensteinElement
from .errors import PrecisionError
from .padic import INFINITY, NewtonPolygon, PadicScalar, check_odd_prime, newton_polygon


class SparsePolynomialL(NamedTuple):
    """Polynomial over L as a map exponent -> nonzero coefficient."""

    prime: int
    ram_index: int
    coefficients: dict

    @property
    def degree(self) -> int:
        return max(self.coefficients)

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.coefficients))

    def coefficient(self, exponent: int) -> EisensteinElement:
        zero = EisensteinElement.zero(self.prime, self.ram_index)
        return self.coefficients.get(exponent, zero)

    def __repr__(self):
        return (
            f"SparsePolynomialL(p={self.prime}, e={self.ram_index}, "
            f"degree={self.degree}, terms={len(self.coefficients)})"
        )


def build_gk(p: int, e: int, alpha_inv, k: int) -> SparsePolynomialL:
    """Assemble g_k for a curve with ramification index e and given alpha**-1.

    alpha_inv is a PadicScalar with v(alpha_inv) >= 0 (twist-normalize
    first if needed), or the int 0 / an exact-zero scalar for the CM
    polynomial g_k^infinity.
    """
    check_odd_prime(p)
    normalized_shape(e)  # raises for e outside {3, 4, 6}
    check_supersingular(p, e)
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(alpha_inv, int):
        if alpha_inv == 0:
            alpha_inv = PadicScalar.exact_zero(p)
        else:
            alpha_inv = PadicScalar.from_rational(alpha_inv, p, INFINITY)
    if not isinstance(alpha_inv, PadicScalar) or alpha_inv.prime != p:
        raise TypeError("alpha_inv must be a PadicScalar over Q_p")
    if alpha_inv.is_precision_zero:
        raise PrecisionError(
            "alpha**-1 is only known to be O(p^N); its valuation is needed"
        )
    if not alpha_inv.is_exact_zero and alpha_inv.valuation < 0:
        raise ValueError(
            f"v(alpha**-1) = {alpha_inv.valuation} < 0; twist-normalize first"
        )
    one = EisensteinElement.from_rational(1, p, e, INFINITY)
    coeffs = {p ** (2 * k): one}
    for n in range(1, k + 1):
        scale = (-1) ** n * p**n
        coeffs[p ** (2 * k - 2 * n)] = EisensteinElement.from_rational(
            scale, p, e, INFINITY
        )
        if not alpha_inv.is_exact_zero:
            odd = EisensteinElement.pi_monomial(alpha_inv * scale, 2, e)
            coeffs[p ** (2 * k + 1 - 2 * n)] = odd
    return SparsePolynomialL(p, e, coeffs)


def coefficient_valuations(poly: SparsePolynomialL) -> list:
    """Sorted (exponent, valuation) pairs over the support."""
    return [(n, poly.coefficients[n].valuation()) for n in sorted(poly.coefficients)]


def newton_polygon_of(poly: SparsePolynomialL) -> NewtonPolygon:
    return newton_polygon(coefficient_valuations(poly))


def root_valuation_partition(poly: SparsePolynomialL) -> list:
    """Root valuations with multiplicities: [(valuation, count), ...].

    The count attached to INFINITY is the multiplicity of the zero root
    (g_k is divisible by x exactly once).
    """
    return newton_polygon_of(poly).root_valuations()


def format_table(poly: SparsePolynomialL) -> str:
    """Human-readable exponent/valuation table."""
    lines = [f"# g over Q_{poly.prime}(pi_{poly.ram_index}), degree {poly.degree}"]
    lines.append("exponent\tvaluation\tcoefficient")
    for n, v in coefficient_valuations(poly):
        lines.append(f"{n}\t{v}\t{poly.coefficients[n]!r}")
    return "\n".join(lines)
