"""Failure modes that carry quantitative evidence.

Every exception stores the numbers that triggered it, in the order the CLI's
error documents list them, so callers can report the obstruction.
"""
from __future__ import annotations


class BeamControlError(Exception):
    """Base class for all domain-specific failures."""


class UncontrollableMode(BeamControlError):
    """A mode with zero boundary coupling carries initial data.

    The boundary trace coefficient of the mode vanishes, so no admissible
    control can reach it; raised only when the mode actually holds data
    above the relative screening tolerance.
    """

    def __init__(self, mode: int, amplitude: float, data_scale: float):
        self.mode = mode
        self.amplitude = amplitude
        self.data_scale = data_scale
        super().__init__(
            f"mode {mode} has zero boundary coupling but carries data "
            f"(amplitude {amplitude:.3e}, data scale {data_scale:.3e})"
        )


class ResonanceDefect(BeamControlError):
    """Two collided eigenvalue branches demand incompatible moments.

    In the overdamped regime with rational branch ratio, distinct modes share
    an exponential kernel; the moment problem remains solvable only if both
    constraints target the same value.  `defect` is the absolute mismatch.
    """

    def __init__(self, rate, defect: float, data_norm: float, pair=None):
        self.rate = rate
        self.defect = defect
        self.data_norm = data_norm
        self.pair = pair
        super().__init__(
            f"collided kernel at rate {rate} receives incompatible targets "
            f"(defect {defect:.3e}, data norm {data_norm:.3e}, modes {pair})"
        )


class NumericalRankDeficiency(BeamControlError):
    """A Gram pivot fell below the meaningful threshold for the working precision."""

    def __init__(self, pivot_index: int, pivot_ratio: float, precision_bits: int,
                 attempted_bits=()):
        self.pivot_index = pivot_index
        self.pivot_ratio = pivot_ratio
        self.precision_bits = precision_bits
        self.attempted_bits = tuple(attempted_bits)
        super().__init__(
            f"Gram pivot {pivot_index} at relative size {pivot_ratio:.3e} is below "
            f"2^-{precision_bits // 2} at {precision_bits}-bit precision "
            f"(attempted precisions: {list(self.attempted_bits) or [precision_bits]})"
        )


class RationalResonance(BeamControlError):
    """Condensation grading requested for an exactly rational branch ratio.

    Rational ratios produce exact eigenvalue collisions, so the condensation
    grade is degenerate (infinite); the scan refuses rather than reporting
    a misleading finite estimate.
    """

    def __init__(self, ratio):
        self.ratio = ratio
        super().__init__(
            f"branch ratio {ratio} is exactly rational: eigenvalue branches collide "
            "and the condensation grade degenerates"
        )


class ImaginaryResidue(BeamControlError, ArithmeticError):
    """A quantity known to be real carries an imaginary part above roundoff.

    Conjugate-pair algebra cancels imaginary parts exactly in theory; a
    residue above 2^(-precision_bits/2) of `scale` means the algebra upstream
    is wrong, not that precision ran short.
    """

    def __init__(self, residue: float, scale: float, precision_bits: int):
        self.precision_bits = precision_bits
        self.residue = residue
        self.scale = scale
        super().__init__(
            f"imaginary residue {residue:.8g} exceeds the roundoff budget "
            f"(scale {scale:.8g}, {precision_bits} bits)"
        )


class SamplingError(BeamControlError):
    """The Chebyshev proxy of a control did not reach float64 accuracy.

    `degree` is the number of Chebyshev-Lobatto intervals the proxy was
    built on; `observed_error` is the coefficient tail (when the series did
    not decay under the node cap) or the worst held-out gap (when it did),
    both relative to the series' own scale, against `tolerance`.
    """

    def __init__(self, degree: int, observed_error: float, tolerance: float, what: str):
        self.degree = degree
        self.observed_error = observed_error
        self.tolerance = tolerance
        super().__init__(
            f"control sampling proxy failed at degree {degree}: {what} "
            f"{observed_error:.3e} against tolerance {tolerance:.3e}"
        )


class StepSizeError(BeamControlError):
    """The explicit integrator went unstable at the requested step count."""

    def __init__(self, steps: int, growth: float):
        self.steps = steps
        self.growth = growth
        super().__init__(
            f"trajectory norm grew {growth:.3e}x at {steps} steps; "
            "raise the step count (stiffest mode must satisfy the stability bound)"
        )
