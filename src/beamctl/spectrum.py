"""Eigenstructure of the damped beam's modal operator.

Each Fourier mode n of u_tt + A^2 u + rho A u_t = 0 on (0, pi) obeys the scalar
ODE a_n'' + rho n^2 a_n' + n^4 a_n = forcing, with characteristic roots

    lambda_n^+- = -rho n^2 / 2 +- i n^2 sqrt(4 - rho^2) / 2.

Below rho = 2 the roots are a conjugate pair, at rho = 2 they merge at -n^2,
and above rho = 2 they split into two real branches -n^2/r and -r n^2 with
r = (rho + sqrt(rho^2 - 4)) / 2 >= 1.  A rational r makes branches collide
(lambda_m^+ = lambda_n^- exactly when m = r n), which is the seed of the
resonance obstructions the rest of the package quantifies.

Rationality decisions are exact: rho is normalized to a Fraction on intake
(floats are dyadic rationals), and r is rational iff rho^2 - 4 is a rational
square, checked by integer square roots.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

import mpmath as mp

from ._numutil import RealLike, as_fraction, rational_sqrt, to_mpf

__all__ = [
    "Boundary",
    "DampingRegime",
    "BeamConfig",
    "ModeEigenvalues",
    "BoundaryTraceExpansion",
    "GapStatistics",
    "classify_damping",
    "mode_eigenvalues",
    "branch_ratio",
    "branch_ratio_exact",
    "detect_collisions",
    "boundary_trace_coefficients",
    "gap_statistics",
]


class Boundary(str, Enum):
    """Which end condition the control acts through."""

    DIRICHLET = "dirichlet"   # u(pi, t) = f(t), sine eigenbasis
    NEUMANN = "neumann"       # u_x(0, t) = u_x(pi, t) = g(t), cosine eigenbasis

    @property
    def first_mode(self) -> int:
        """Mode number of a state's first slot: the constant cosine mode 0
        under Neumann, the first sine mode 1 under Dirichlet."""
        return 0 if self is Boundary.NEUMANN else 1


class DampingRegime(str, Enum):
    UNDERDAMPED = "underdamped"   # rho < 2: conjugate-pair eigenvalues
    CRITICAL = "critical"         # rho = 2: double root at -n^2
    OVERDAMPED = "overdamped"     # rho > 2: two real branches


@dataclass(frozen=True)
class BeamConfig:
    """Problem configuration shared by every stage of the pipeline.

    rho and horizon are normalized to exact Fractions so regime
    classification and rationality checks are decided on the supplied
    representation, not on a rounding of it.
    """

    boundary: Boundary
    rho: Fraction
    n_modes: int
    horizon: Fraction
    precision_bits: int = 256

    def __post_init__(self):
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        object.__setattr__(self, "rho", as_fraction(self.rho, "rho"))
        object.__setattr__(self, "horizon", as_fraction(self.horizon, "horizon"))
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not isinstance(self.n_modes, int) or self.n_modes < 1:
            raise ValueError(f"n_modes must be a positive integer, got {self.n_modes}")
        if not isinstance(self.precision_bits, int) or self.precision_bits < 53:
            raise ValueError(f"precision_bits must be an integer >= 53, got {self.precision_bits}")

    @property
    def regime(self) -> DampingRegime:
        return classify_damping(self.rho)


@dataclass(frozen=True)
class ModeEigenvalues:
    """Characteristic roots of one modal ODE.

    lambda_plus is the branch with larger real part (slower decay); in the
    underdamped regime the pair is conjugate and alpha > 0, otherwise both
    roots are real mpf values and alpha = 0.
    """

    n: int
    regime: DampingRegime
    beta: mp.mpf                      # common real part -rho n^2 / 2
    alpha: mp.mpf                     # oscillation rate, 0 unless underdamped
    lambda_plus: Union[mp.mpf, mp.mpc]
    lambda_minus: Union[mp.mpf, mp.mpc]


@dataclass(frozen=True)
class BoundaryTraceExpansion:
    """Eigenbasis coefficients of the boundary lifting profile.

    Dirichlet lifts through U(x,t) = (x/pi) f(t); the profile x/pi has sine
    coefficients x_n = (-1)^(n+1) sqrt(2/pi) / n.  Neumann lifts through
    U(x,t) = x g(t); the profile x has cosine coefficients
    x_0 = pi^(3/2)/2 and x_n = sqrt(2/pi)((-1)^n - 1)/n^2, zero for even n:
    those modes are invisible to the control.
    """

    boundary: Boundary
    coefficients: Sequence[mp.mpf]    # modes 1..n_max
    zero_mode: Optional[mp.mpf]       # Neumann only

    def coefficient(self, n: int) -> mp.mpf:
        if n == 0:
            if self.zero_mode is None:
                raise ValueError("Dirichlet expansion has no zero mode")
            return self.zero_mode
        return self.coefficients[n - 1]


@dataclass(frozen=True)
class GapStatistics:
    """Pairwise eigenvalue separation along each branch up to n_max."""

    n_max: int
    min_gap_plus: float
    min_gap_minus: float
    consecutive_gaps_plus: tuple
    consecutive_gaps_minus: tuple
    merged_min_gap: float             # min over the union of both branches
    merged_min_pair: tuple            # ((m, branch), (n, branch)) achieving it
    collisions: tuple = field(default_factory=tuple)


def classify_damping(rho: RealLike) -> DampingRegime:
    """Damping regime by exact comparison of rho with 2."""
    rho = as_fraction(rho, "rho")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if rho < 2:
        return DampingRegime.UNDERDAMPED
    if rho == 2:
        return DampingRegime.CRITICAL
    return DampingRegime.OVERDAMPED


def branch_ratio_exact(rho: RealLike) -> Optional[Fraction]:
    """Exact branch ratio r = (rho + sqrt(rho^2 - 4))/2 if rational, else None."""
    rho = as_fraction(rho, "rho")
    if rho < 2:
        raise ValueError(f"branch ratio needs rho >= 2, got {rho}")
    root = rational_sqrt(rho * rho - 4)
    if root is None:
        return None
    return (rho + root) / 2


def branch_ratio(rho: RealLike, precision_bits: int = 256) -> mp.mpf:
    """Branch ratio r >= 1 of the overdamped splitting, at working precision.

    r satisfies r + 1/r = rho; the two real eigenvalue branches are
    lambda_n^+ = -n^2/r and lambda_n^- = -r n^2.
    """
    rho = as_fraction(rho, "rho")
    if rho < 2:
        raise ValueError(f"branch ratio needs rho >= 2, got {rho}")
    exact = branch_ratio_exact(rho)
    with mp.workprec(precision_bits):
        if exact is not None:
            return to_mpf(exact)
        rho_mp = to_mpf(rho)
        return (rho_mp + mp.sqrt(rho_mp * rho_mp - 4)) / 2


def mode_eigenvalues(rho: RealLike, n: int, precision_bits: int = 256) -> ModeEigenvalues:
    """Characteristic roots of mode n at the working precision.

    Raises ValueError for rho <= 0 or n < 1 (n = 0 is only meaningful under
    Neumann coupling and is handled by the dynamics module directly, since
    its ODE is not of this family).
    """
    rho = as_fraction(rho, "rho")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"mode index must be a positive integer, got {n}")
    regime = classify_damping(rho)
    with mp.workprec(precision_bits):
        n2 = mp.mpf(n) ** 2
        rho_mp = to_mpf(rho)
        beta = -rho_mp * n2 / 2
        if regime is DampingRegime.UNDERDAMPED:
            alpha = n2 * mp.sqrt(4 - rho_mp * rho_mp) / 2
            lam_p = mp.mpc(beta, alpha)
            lam_m = mp.mpc(beta, -alpha)
        elif regime is DampingRegime.CRITICAL:
            alpha = mp.mpf(0)
            lam_p = lam_m = -n2
        else:
            alpha = mp.mpf(0)
            r = branch_ratio(rho, precision_bits)
            lam_p = -n2 / r
            lam_m = -r * n2
        return ModeEigenvalues(n=n, regime=regime, beta=beta, alpha=alpha,
                               lambda_plus=lam_p, lambda_minus=lam_m)


def detect_collisions(r, n_max: int) -> list:
    """Pairs (m, n) with lambda_m^+ = lambda_n^-, i.e. m = r n, for m, n <= n_max.

    r must be exact (a Fraction or int): writing r = p/q in lowest terms, the
    collisions are exactly (p k, q k) for k >= 1.  An irrational r has none,
    and a rounded one cannot tell a near miss from a hit, so an inexact r
    raises TypeError.
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max}")
    if not isinstance(r, (Fraction, int)):
        raise TypeError(f"branch ratio must be an exact Fraction, got {type(r).__name__}")
    r = Fraction(r)
    if r < 1:
        raise ValueError(f"branch ratio must be >= 1, got {r}")
    p, q = r.numerator, r.denominator
    out = []
    k = 1
    while p * k <= n_max and q * k <= n_max:
        out.append((p * k, q * k))
        k += 1
    return out


def boundary_trace_coefficients(boundary, n_max: int,
                                precision_bits: int = 256) -> BoundaryTraceExpansion:
    """Eigenbasis expansion of the boundary lifting profile, modes 1..n_max."""
    boundary = Boundary(boundary)
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max}")
    with mp.workprec(precision_bits):
        c = mp.sqrt(2 / mp.pi)
        if boundary is Boundary.DIRICHLET:
            coeffs = tuple(c * (-1) ** (n + 1) / n for n in range(1, n_max + 1))
            return BoundaryTraceExpansion(boundary, coeffs, None)
        coeffs = tuple(c * ((-1) ** n - 1) / mp.mpf(n) ** 2 for n in range(1, n_max + 1))
        zero = mp.pi ** mp.mpf("1.5") / 2
        return BoundaryTraceExpansion(boundary, coeffs, zero)


def gap_statistics(rho: RealLike, n_max: int, precision_bits: int = 256) -> GapStatistics:
    """Minimum pairwise separation of eigenvalues along and across branches.

    Along one branch the gap modulus for modes m != n is |n^2 - m^2| in every
    regime (the complex pair has modulus-one slope: |beta_n - beta_m +
    i(alpha_n - alpha_m)| = |n^2 - m^2| when rho <= 2), so the minimum is
    the smallest consecutive gap, and the gaps grow without bound.
    Across branches the merged minimum is zero exactly at a collision.
    """
    if not isinstance(n_max, int) or n_max < 2:
        raise ValueError(f"n_max must be an integer >= 2, got {n_max}")
    eigs = [mode_eigenvalues(rho, n, precision_bits) for n in range(1, n_max + 1)]
    plus = [e.lambda_plus for e in eigs]
    minus = [e.lambda_minus for e in eigs]

    cons_p = tuple(float(abs(plus[i + 1] - plus[i])) for i in range(n_max - 1))
    cons_m = tuple(float(abs(minus[i + 1] - minus[i])) for i in range(n_max - 1))

    # the two branches are rays through 0 off the real axis when underdamped,
    # so no ordering finds their nearest pair: scan across them in full
    labeled = [((n, "+"), plus[n - 1]) for n in range(1, n_max + 1)]
    labeled += [((n, "-"), minus[n - 1]) for n in range(1, n_max + 1)]
    merged_best, merged_pair = None, None
    for i in range(len(labeled)):
        for j in range(i + 1, len(labeled)):
            g = abs(labeled[i][1] - labeled[j][1])
            if merged_best is None or g < merged_best:
                merged_best, merged_pair = g, (labeled[i][0], labeled[j][0])

    # an irrational branch ratio has no m = r n
    collisions = ()
    rho_fr = as_fraction(rho, "rho")
    if rho_fr > 2:
        r_exact = branch_ratio_exact(rho_fr)
        if r_exact is not None:
            collisions = tuple(detect_collisions(r_exact, n_max))

    return GapStatistics(
        n_max=n_max,
        min_gap_plus=min(cons_p),
        min_gap_minus=min(cons_m),
        consecutive_gaps_plus=cons_p,
        consecutive_gaps_minus=cons_m,
        merged_min_gap=float(merged_best),
        merged_min_pair=merged_pair,
        collisions=collisions,
    )
