"""Boundary null control of a structurally damped beam on (0, pi).

The library synthesizes a boundary input driving any admissible initial
state of u_tt + u_xxxx - rho u_txx = 0 to rest at a chosen time, verifies
the result with an independent spectral integration of each mode, and
analyzes the spectral condensation that obstructs control in the strongly
damped regime.

The public surface re-exported here is the stable API; module paths are
implementation detail.
"""
from .errors import (
    BeamControlError,
    ImaginaryResidue,
    NumericalRankDeficiency,
    RationalResonance,
    ResonanceDefect,
    SamplingError,
    UncontrollableMode,
)
from .spectrum import (
    BeamConfig,
    Boundary,
    DampingRegime,
    GapStatistics,
    ModeEigenvalues,
    Spectrum,
    branch_ratio,
    branch_ratio_exact,
    classify_damping,
    detect_collisions,
    gap_statistics,
    mode_eigenvalues,
)
from .kernels import ControlSignal, Kernel
from .modal_dynamics import (
    ModalState,
    Trajectory,
    simulate_oracle,
    state_pair_norm,
)
from .closed_form import closed_form_state
from .moment_problem import (
    MomentSystem,
    assemble,
    data_l2_norm,
    moment_rhs,
    neumann_admissibility,
)
from .synthesis import (
    SynthesisReport,
    gram_matrix,
    solve_min_norm,
)
from .condensation import (
    CondensationEstimate,
    condensation_estimate,
    eprime_magnitudes,
    ratio_from_quotients,
    ratio_from_sqrt,
    weierstrass_E,
)
from .verification import (
    CostSweep,
    Verdict,
    VerificationReport,
    closed_form_final_state,
    cost_sweep,
    null_control_experiment,
    pair_norm_scale,
)

__version__ = "0.1.0"

__all__ = [
    "BeamControlError",
    "ImaginaryResidue",
    "NumericalRankDeficiency",
    "RationalResonance",
    "ResonanceDefect",
    "SamplingError",
    "UncontrollableMode",
    "BeamConfig",
    "Boundary",
    "DampingRegime",
    "GapStatistics",
    "ModeEigenvalues",
    "Spectrum",
    "branch_ratio",
    "branch_ratio_exact",
    "classify_damping",
    "detect_collisions",
    "gap_statistics",
    "mode_eigenvalues",
    "ControlSignal",
    "Kernel",
    "ModalState",
    "Trajectory",
    "closed_form_state",
    "simulate_oracle",
    "state_pair_norm",
    "MomentSystem",
    "assemble",
    "data_l2_norm",
    "moment_rhs",
    "neumann_admissibility",
    "SynthesisReport",
    "gram_matrix",
    "solve_min_norm",
    "CondensationEstimate",
    "condensation_estimate",
    "eprime_magnitudes",
    "ratio_from_quotients",
    "ratio_from_sqrt",
    "weierstrass_E",
    "CostSweep",
    "Verdict",
    "VerificationReport",
    "closed_form_final_state",
    "cost_sweep",
    "null_control_experiment",
    "pair_norm_scale",
    "__version__",
]
