"""Exponential weight function used to control weighted L^p energies.

The weight ``phi(s) = exp(z(s))`` is built from four coefficients derived
from an exponent ``p > 1`` and a mixing parameter ``eps`` in (0, 1).  Its
exponent ``z`` integrates a tangent kernel, so ``phi`` is only defined while
the tangent argument stays inside (-pi/2, pi/2); that restricts the signal
amplitude ``s`` to ``[0, m]`` with ``m`` strictly below :func:`admissible_bound`.

By construction the weight satisfies, for all ``s`` in ``[0, m]``:

* ``phi'(s) >= 0`` (monotone),
* ``1 <= phi(s) <= phi(m)``,
* ``phi''(s)/p - phi'(s) >= 0``,
* ``|(p-1)*phi - 2*phi'| == 2*sqrt((p-1)*(1-eps)*phi*(phi''/p - phi'))``.

The last identity is what makes a weighted L^p energy of an advected density
nonincreasing up to a constant; :meth:`WeightFunction.identity_residual`
evaluates its residual so the construction can be checked numerically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WeightFunction",
    "coefficients",
    "admissible_bound",
    "make_weight",
    "epsilon_for_threshold",
    "p_for_equality",
]

# Relative slack kept between m and the admissible bound; closer than this the
# tangent evaluation loses too many digits to be trustworthy.
_BOUNDARY_MARGIN = 1e-12

# Largest exponent the construction takes: it forms 16 p^2, which must stay a
# finite float.
_P_MAX = math.sqrt(sys.float_info.max) / 4.0


def _check_p_eps(p: float, eps: float, key: str = "") -> None:
    """Raise ValueError unless the construction takes (p, eps); ``key``
    prefixes the names in the message (``"weight."`` for the config keys)."""
    if not 1.0 < p <= _P_MAX:
        raise ValueError(f"{key}p must be a real in (1, {_P_MAX:.6g}], got {p}")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"{key}eps must lie strictly inside (0, 1), got {eps}")


def coefficients(p: float, eps: float) -> tuple[float, float, float, float]:
    """Return the closed-form coefficients (a, b, c, d) for given p and eps."""
    _check_p_eps(p, eps)
    a = (p - 1.0) ** 2
    b = -4.0 * (p - 1.0) * eps
    c = (4.0 / p) * (1.0 + (p - 1.0) * eps)
    d = (4.0 / p) * (p - 1.0) * (1.0 - eps)
    return a, b, c, d


def admissible_bound(p: float, eps: float) -> float:
    """Largest signal amplitude for which the weight stays finite.

    Equals ``(pi/2 - theta0)/kappa`` where ``kappa*s + theta0`` is the tangent
    argument of the weight's exponent: amplitudes strictly below keep the
    tangent away from its singularity.
    """
    _check_p_eps(p, eps)
    root = math.sqrt(p / (1.0 + (p - 1.0) * eps - p * eps * eps))
    return (
        (2.0 / math.sqrt(p))
        * math.sqrt((1.0 - eps) / (1.0 + p * eps))
        * (0.5 * math.pi + math.atan(root * eps))
    )


@dataclass(frozen=True)
class WeightFunction:
    """Weight ``phi = exp(z)`` on [0, m], its other constants derived from
    (p, eps).

    Construction raises ``ValueError`` unless :func:`coefficients` takes
    (p, eps) and m is a finite real below :func:`admissible_bound`, out of
    rounding distance of it; ``m = 0`` is the single point ``phi(0) = 1``.
    Instances are immutable and every evaluation is pure, so they can be
    shared freely across threads.
    """

    p: float
    eps: float
    m: float
    a: float = field(init=False)
    b: float = field(init=False)
    c: float = field(init=False)
    d: float = field(init=False)
    disc: float = field(init=False)  # 4ac - b^2
    kappa: float = field(init=False)  # sqrt(disc) / (2d), slope of the tangent argument
    theta0: float = field(init=False)  # arctan(b / sqrt(disc)), tangent phase at s = 0

    def __post_init__(self) -> None:
        a, b, c, d = coefficients(self.p, self.eps)
        if not (self.m >= 0.0 and math.isfinite(self.m)):
            raise ValueError(f"m must be a finite real >= 0, got {self.m}")
        bound = admissible_bound(self.p, self.eps)
        if self.m >= bound - _BOUNDARY_MARGIN * bound:
            raise ValueError(
                f"amplitude m={self.m} reaches the admissible bound "
                f"{bound} for p={self.p}, eps={self.eps}"
            )
        disc = 4.0 * a * c - b * b
        sq = math.sqrt(disc)
        derived = dict(
            a=a, b=b, c=c, d=d, disc=disc, kappa=sq / (2.0 * d), theta0=math.atan(b / sq)
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def _angle(self, s):
        """Tangent argument kappa*s + theta0, after checking s is in [0, m]."""
        s = np.asarray(s, dtype=float)
        if s.size and (s.min() < 0.0 or s.max() > self.m):
            raise ValueError(f"weight domain exceeded: s must lie in [0, {self.m}]")
        ang = self.kappa * s
        ang += self.theta0
        return ang

    def z(self, s):
        """Exponent z(s); z(0) = 0 and z is nondecreasing.

        The tangent integral is evaluated through its log-cosine
        antiderivative, which is exact up to rounding.
        """
        ang = np.asarray(self._angle(s))  # fresh, so worked on in place
        s = np.asarray(s, dtype=float)
        lin = -(self.b / (2.0 * self.c)) * s
        np.cos(ang, out=ang)
        np.log(ang, out=ang)
        ang -= math.log(math.cos(self.theta0))
        ang *= self.d / self.c
        lin -= ang
        return lin if lin.ndim else float(lin)

    def z_prime(self, s):
        ang = self._angle(s)
        out = -self.b / (2.0 * self.c) + (
            math.sqrt(self.disc) / (2.0 * self.c)
        ) * np.tan(ang)
        return out if out.ndim else float(out)

    def phi(self, s):
        """Weight value exp(z(s)); phi(0) = 1."""
        out = np.exp(self.z(s))
        return out if np.ndim(out) else float(out)

    def phi_prime(self, s):
        out = self.phi(s) * self.z_prime(s)
        return out if np.ndim(out) else float(out)

    def phi_second(self, s):
        zp = self.z_prime(s)
        zpp = (self.a + self.b * zp + self.c * zp * zp) / self.d
        out = self.phi(s) * (zpp + zp * zp)
        return out if np.ndim(out) else float(out)

    def identity_residual(self, s):
        """Residual of the defining identity; analytically zero on [0, m].

        Returns ``|(p-1)*phi - 2*phi'| - 2*sqrt((p-1)*(1-eps)*phi*(phi''/p - phi'))``.
        The radicand is nonnegative in exact arithmetic; rounding-level
        negatives are clipped, anything worse means the construction is
        internally inconsistent and raises.
        """
        phi = self.phi(s)
        dphi = self.phi_prime(s)
        ddphi = self.phi_second(s)
        rad = (self.p - 1.0) * (1.0 - self.eps) * phi * (ddphi / self.p - dphi)
        # Rounding noise scales like the squared magnitude of the terms that
        # cancel, so the clip threshold must scale with phi^2.
        floor = -1e-12 * np.maximum(1.0, phi * phi)
        if np.any(rad < floor):
            raise RuntimeError("negative radicand: weight identity broken")
        rad = np.maximum(rad, 0.0)
        out = np.abs((self.p - 1.0) * phi - 2.0 * dphi) - 2.0 * np.sqrt(rad)
        return out if np.ndim(out) else float(out)


def make_weight(p: float, eps: float, m: float) -> WeightFunction:
    """The :class:`WeightFunction` for (p, eps) valid on [0, m]; raises
    ``ValueError`` where its construction does."""
    return WeightFunction(p, eps, m)


def epsilon_for_threshold(m: float, n: int) -> float:
    """Mixing parameter for a given signal amplitude below the threshold.

    For ``0 <= m < sqrt(2/n)*pi`` returns ``eps`` in (0, 1/2] satisfying
    ``m = (2/sqrt(n/2)) * sqrt((1-2*eps)/(1+2*eps*(n/2))) * pi/2``.
    """
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    if not (m >= 0.0 and math.isfinite(m)):
        raise ValueError(f"m must be a finite real >= 0, got {m}")
    half_n = 0.5 * n
    pi_sq = math.pi * math.pi
    if m >= math.sqrt(2.0 / n) * math.pi:
        raise ValueError(
            f"amplitude m={m} is above the threshold sqrt(2/{n})*pi"
        )
    return (pi_sq - half_n * m * m) / (2.0 * (pi_sq + half_n * half_n * m * m))


def p_for_equality(m: float, eps: float) -> float:
    """Exponent p at which the zero-arctan amplitude bound equals m.

    Solves ``m = (2/sqrt(p)) * sqrt((1-eps)/(1+eps*p)) * pi/2`` for p, i.e.
    the positive root of ``eps*p^2 + p - pi^2*(1-eps)/m^2``.  The returned p
    always satisfies ``admissible_bound(p, eps) > m`` strictly, because the
    full bound carries an extra positive arctan term.  Raises ``ValueError``
    when the root is not a p the weight can use: at most 1 (amplitude too
    large) or beyond the largest :func:`make_weight` takes (amplitude too
    small, where the root is not even a finite float).
    """
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError(f"m must be a finite real > 0, got {m}")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie strictly inside (0, 1), got {eps}")
    m_sq = m * m  # 0 below m ~ 1.5e-162
    target = (math.pi * math.pi) * (1.0 - eps) / m_sq if m_sq else math.inf
    # Stable quadratic root, exact down to eps -> 0 where p -> target; disc
    # overflows only when the root is far beyond _P_MAX.
    disc = 1.0 + 4.0 * eps * target
    p = 2.0 * target / (1.0 + math.sqrt(disc)) if math.isfinite(disc) else math.inf
    if not (p > 1.0):
        raise ValueError(
            f"no exponent p > 1 solves the amplitude equality for "
            f"m={m}, eps={eps} (amplitude too large)"
        )
    if not p <= _P_MAX:
        raise ValueError(
            f"the exponent solving the amplitude equality for m={m}, eps={eps} "
            f"exceeds {_P_MAX:.6g}, the largest the weight takes (amplitude too small)"
        )
    return p
