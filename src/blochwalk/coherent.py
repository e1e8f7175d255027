"""Spin coherent states in the Dicke basis and the ring of walker sites.

The walker's lattice is a ring of L equally spaced sites on a parallel of
the Bloch sphere (default: the equator), each site being the coherent state
|theta0, n * 2pi/L>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .su2 import SpinQuantum

__all__ = [
    "SiteIndexing",
    "coherent_state",
    "site_state",
]


@dataclass(frozen=True)
class SiteIndexing:
    """Ring of `sites` equally spaced azimuthal sites at latitude theta0."""

    sites: int
    theta0: float = math.pi / 2.0

    def __post_init__(self):
        if self.sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.sites}")

    @property
    def delta_phi(self) -> float:
        return 2.0 * math.pi / self.sites

    def wrap(self, n):
        """Site index (int or integer array) wrapped into the balanced range
        (-L/2, L/2]."""
        r = n % self.sites
        return r - self.sites * (2 * r > self.sites)

    @property
    def site_numbers(self) -> np.ndarray:
        """All site indices in the balanced range, ascending."""
        lo = self.sites // 2 - self.sites + 1
        return np.arange(lo, lo + self.sites)

    def phi(self, n: int) -> float:
        return self.wrap(n) * self.delta_phi


def coherent_state(spin: SpinQuantum, theta: float, phi: float) -> np.ndarray:
    """Spin coherent state |theta, phi>: complex amplitudes over the Dicke
    basis |J,m>, m = J .. -J.

    Amplitude on |J,m> is sqrt(C(2J, J-m)) cos^{J+m}(t/2) sin^{J-m}(t/2)
    e^{i(J-m)phi}; the binomial factor is evaluated in the log domain, and
    the magnitudes are divided by their `math.fsum` norm before the phase.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    tj = spin.two_j
    k = np.arange(spin.dim)          # lowering steps, k = J - m
    # ln(n!) for n = 0 .. 2J, summed from ln(n) so adjacent differences
    # reproduce ln(n) to machine precision
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, tj + 1)))))
    log_binom = 0.5 * (log_fact[tj] - log_fact[k] - log_fact[tj - k])

    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    log_c = math.log(c) if c > 0.0 else -math.inf
    log_s = math.log(s) if s > 0.0 else -math.inf
    exp_cos = tj - k                 # J + m
    exp_sin = k                      # J - m
    # 0 * log(0) counts as 0 so the pole states come out exact
    log_mag = log_binom.copy()
    with np.errstate(invalid="ignore"):
        log_mag += np.where(exp_cos > 0, exp_cos * log_c, 0.0)
        log_mag += np.where(exp_sin > 0, exp_sin * log_s, 0.0)
    mag = np.exp(log_mag)
    mag /= math.sqrt(math.fsum(mag * mag))
    return mag * np.exp(1j * k * phi)


def site_state(indexing: SiteIndexing, spin: SpinQuantum, n: int) -> np.ndarray:
    """Walker site state |phi_n> = |theta0, n * delta_phi>, n wrapped."""
    return coherent_state(spin, indexing.theta0, indexing.phi(n))

