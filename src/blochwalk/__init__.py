"""Discrete-time quantum walk on the Bloch sphere.

A spin cluster walks on a ring of spin coherent states; an auxiliary
spin-1/2 coin conditions the direction of each rotation step.  The package
evolves the composite system, computes the SU(2) Wigner function of the
reduced walker state, and compares the resulting distributions and spread
against the ideal orthogonal-state walk.
"""

__version__ = "0.1.0"

from .coherent import SiteIndexing, coherent_state, overlap_modulus, site_state
from .su2 import (SpinQuantum, cg_coefficient, cg_l0_family,
                  rotated_dicke_frame, rz_phases, small_d_matrix)
from .walk import (CoinPulse, CoinWalkerState, DensityMatrix, WalkSchedule,
                   coin_unitary, conditional_shift, evolve, ideal_sigma,
                   ideal_walk, initial_state, reduce_walker, step)
from .wigner import (KernelWeights, NumericalInvariantError, PhiDistribution,
                     WignerGrid, kernel_weights, marginal_phi, phi_moment,
                     sigma_from_marginal, tv_distance, wigner_at, wigner_grid)

__all__ = [
    "__version__",
    "SpinQuantum", "cg_coefficient", "cg_l0_family",
    "small_d_matrix", "rz_phases", "rotated_dicke_frame",
    "SiteIndexing", "coherent_state", "site_state", "overlap_modulus",
    "CoinWalkerState", "CoinPulse", "WalkSchedule", "DensityMatrix",
    "coin_unitary", "conditional_shift", "step", "evolve", "reduce_walker",
    "initial_state", "ideal_walk", "ideal_sigma",
    "KernelWeights", "WignerGrid", "PhiDistribution",
    "NumericalInvariantError", "kernel_weights", "wigner_at", "wigner_grid",
    "marginal_phi", "sigma_from_marginal", "phi_moment", "tv_distance",
]
