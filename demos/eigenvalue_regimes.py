"""Walk the damping parameter through its three spectral regimes.

Each transverse mode n of the damped beam contributes a conjugate pair,
a double root, or two real decay rates depending on where rho sits
relative to 2.  This prints the low end of the spectrum for one value
in each regime and shows the collision pairs that appear as soon as the
overdamped branch ratio is rational.
"""
from fractions import Fraction

from beamctl.spectrum import (
    BeamConfig,
    Boundary,
    branch_ratio_exact,
    detect_collisions,
    gap_statistics,
    mode_eigenvalues,
)

N = 5
BITS = 128


def show(rho, note):
    print(f"\nrho = {rho}  ({note})")
    print(f"  {'n':>2} {'lambda+':>24} {'lambda-':>24}")
    for n in range(1, N + 1):
        eig = mode_eigenvalues(Fraction(rho), n, BITS)
        print(f"  {n:>2} {complex(eig.lambda_plus):>24.6g} "
              f"{complex(eig.lambda_minus):>24.6g}")


show("0.5", "underdamped: conjugate pairs on the circle |lambda| = n^2")
show("2", "critical: double real root -n^2 on every mode")
show("2.5", "overdamped: real rates n^2/r and r n^2")

r = branch_ratio_exact(Fraction(5, 2))
print(f"\nbranch ratio at rho = 5/2 is exactly {r}")
pairs = detect_collisions(r, 8)
print(f"collisions among the first 8 modes: {pairs}")
print("  (slow rate of the first mode equals fast rate of the second)")

config = BeamConfig(Boundary.DIRICHLET, Fraction(5, 2), n_modes=8, horizon=1, precision_bits=BITS)
stats = gap_statistics(config.spectrum)
print(f"smallest gap in the merged rate sequence: {stats.merged_min_gap:.3g} "
      f"at pair {stats.merged_min_pair}")
