"""One period of the coin-conditioned walk U(T) = M * C on the composite
coin (x) walker system, plus the ideal orthogonal-state walk used as the
reference.

The composite state is stored as two walker branches (coin up / coin down);
both the coin flip and the conditional shift act blockwise, so a step is a
2x2 mix plus two diagonal phase scalings, O(2J+1) total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coherent import SiteIndexing, site_state
from .su2 import SpinQuantum, rz_phases

__all__ = [
    "CoinWalkerState",
    "CoinPulse",
    "WalkSchedule",
    "DensityMatrix",
    "coin_unitary",
    "conditional_shift",
    "step",
    "evolve",
    "reduce_walker",
    "initial_state",
    "ideal_walk",
    "ideal_sigma",
]


@dataclass(frozen=True)
class CoinWalkerState:
    """Pure state of coin (x) walker: up/down walker branches over m = J..-J."""

    spin: SpinQuantum
    up: np.ndarray = field(repr=False)
    down: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class CoinPulse:
    """Coin pulse vector h; the coin flip is exp(-i h . sigma / 2)."""

    h: tuple[float, float, float]

    @classmethod
    def hadamard(cls) -> "CoinPulse":
        """h = (pi, 0, pi)/sqrt(2), realizing -i H_c."""
        a = math.pi / math.sqrt(2.0)
        return cls((a, 0.0, a))


@dataclass(frozen=True)
class WalkSchedule:
    """Per-step rotation angle kappa*T and step count."""

    kappa_T: float
    steps: int

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")

    @classmethod
    def site_aligned(cls, indexing: SiteIndexing, steps: int) -> "WalkSchedule":
        """kappa*T = delta_phi = 2 pi / L: one site per step."""
        return cls(indexing.delta_phi, steps)


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced walker state over the Dicke basis."""

    spin: SpinQuantum
    entries: np.ndarray = field(repr=False)


def coin_unitary(pulse: CoinPulse) -> np.ndarray:
    """exp(-i h.sigma/2) = cos(h/2) I - i sin(h/2) (h/|h|).sigma."""
    hx, hy, hz = pulse.h
    h = math.sqrt(hx * hx + hy * hy + hz * hz)
    if h == 0.0:
        return np.eye(2, dtype=complex)
    c = math.cos(h / 2.0)
    s = math.sin(h / 2.0) / h
    return np.array([
        [c - 1j * s * hz, -s * hy - 1j * s * hx],
        [s * hy - 1j * s * hx, c + 1j * s * hz],
    ])


def initial_state(indexing: SiteIndexing, spin: SpinQuantum,
                  coin: tuple[complex, complex] = (1.0, 0.0)) -> CoinWalkerState:
    """|phi_0> (x) (coin_up, coin_down), normalized; the coin defaults to |up>."""
    w = site_state(indexing, spin, 0)
    cu, cd = coin
    scale = math.sqrt(abs(cu) ** 2 + abs(cd) ** 2)
    return CoinWalkerState(spin, (cu / scale) * w, (cd / scale) * w)


def conditional_shift(state: CoinWalkerState,
                      schedule: WalkSchedule) -> CoinWalkerState:
    """M: R_z(+kappa T) on the up branch, R_z(-kappa T) on the down branch."""
    fwd = rz_phases(state.spin, schedule.kappa_T)
    return CoinWalkerState(state.spin, fwd * state.up,
                           fwd.conj() * state.down)


def step(state: CoinWalkerState, pulse: CoinPulse,
         schedule: WalkSchedule) -> CoinWalkerState:
    """One period U(T) = M * C: coin flip first, then conditional shift."""
    u = coin_unitary(pulse)
    mixed = CoinWalkerState(
        state.spin,
        u[0, 0] * state.up + u[0, 1] * state.down,
        u[1, 0] * state.up + u[1, 1] * state.down,
    )
    return conditional_shift(mixed, schedule)


def evolve(initial: CoinWalkerState, pulse: CoinPulse,
           schedule: WalkSchedule) -> list[CoinWalkerState]:
    """States after 0 .. schedule.steps applications of U(T)."""
    states = [initial]
    for _ in range(schedule.steps):
        states.append(step(states[-1], pulse, schedule))
    return states


def reduce_walker(state: CoinWalkerState) -> DensityMatrix:
    """Trace out the coin: rho_w = |up><up| + |down><down|."""
    rho = np.outer(state.up, state.up.conj()) + np.outer(state.down,
                                                         state.down.conj())
    return DensityMatrix(state.spin, rho)


# ---------------------------------------------------------------------------
# Ideal orthogonal-state walk on the cyclic lattice
# ---------------------------------------------------------------------------

def ideal_walk(sites: int, steps: int, coin: np.ndarray,
               coin_state: tuple[complex, complex] = (1.0, 0.0)
               ) -> list[np.ndarray]:
    """Exact unitary walk with orthogonal site states, starting at site 0.

    Returns one probability array per step (0..steps), each over the
    balanced site range of SiteIndexing(sites).site_numbers (ascending).
    """
    indexing = SiteIndexing(sites)      # raises for fewer than 2 sites
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    amp = np.zeros((sites, 2), dtype=complex)   # indexed by site mod L
    cu, cd = coin_state
    scale = math.sqrt(abs(cu) ** 2 + abs(cd) ** 2)
    amp[0] = (cu / scale, cd / scale)

    order = indexing.site_numbers % sites       # balanced order -> mod-L rows
    probs = [(np.abs(amp[order]) ** 2).sum(axis=1)]
    for _ in range(steps):
        amp = amp @ coin.T
        up = np.roll(amp[:, 0], 1)      # coin-up moves +1 site
        down = np.roll(amp[:, 1], -1)   # coin-down moves -1 site
        amp = np.stack([up, down], axis=1)
        probs.append((np.abs(amp[order]) ** 2).sum(axis=1))
    return probs


def ideal_sigma(probabilities: np.ndarray, indexing: SiteIndexing) -> float:
    """sqrt(<phi^2> - <phi>^2) over unwrapped phi_n = n * delta_phi."""
    p = np.asarray(probabilities, dtype=float)
    total = p.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    phi = indexing.site_numbers * indexing.delta_phi
    mean = float(p @ phi)
    second = float(p @ (phi * phi))
    return math.sqrt(max(0.0, second - mean * mean))

