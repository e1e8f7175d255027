"""The coin-conditioned walk U(T) = M * C on the composite coin (x) walker
system, plus the ideal orthogonal-state walk used as the reference.

The composite state is stored as two walker branches (coin up / coin down);
both the coin flip and the conditional shift act blockwise, so a step is a
2x2 mix plus two diagonal phase scalings, O(2J+1) total.  `evolve` writes
a walk into one (steps + 1, 2J + 1) array per branch; walk[k] is step k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coherent import SiteIndexing, site_state
from .su2 import SpinQuantum, rz_phases

__all__ = ["CoinWalkerState", "CoinPulse", "WalkSchedule", "DensityMatrix",
           "coin_unitary", "evolve", "reduce_walker", "initial_state",
           "ideal_walk", "ideal_sigma"]


@dataclass(frozen=True)
class CoinWalkerState:
    """Pure state of coin (x) walker: up/down walker branches over m = J..-J,
    along the last axis; a leading axis, if any, stacks the steps of a
    walk."""

    spin: SpinQuantum
    up: np.ndarray = field(repr=False)
    down: np.ndarray = field(repr=False)

    def __getitem__(self, k) -> "CoinWalkerState":
        """Step k of a stacked walk, as views of its amplitudes."""
        return CoinWalkerState(self.spin, self.up[k], self.down[k])


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


def evolve(initial: CoinWalkerState, pulse: CoinPulse,
           schedule: WalkSchedule) -> CoinWalkerState:
    """The states after 0 .. schedule.steps periods U(T) = M * C, stacked
    along a leading step axis: each period flips the coin, then M applies
    R_z(+kappa T) to the up branch and R_z(-kappa T) to the down branch."""
    c = coin_unitary(pulse)
    fwd = rz_phases(initial.spin, schedule.kappa_T)
    back = fwd.conj()
    up, down = np.empty((2, schedule.steps + 1, initial.spin.dim), complex)
    up[0], down[0] = initial.up, initial.down
    for k in range(1, schedule.steps + 1):
        up[k] = fwd * (c[0, 0] * up[k - 1] + c[0, 1] * down[k - 1])
        down[k] = back * (c[1, 0] * up[k - 1] + c[1, 1] * down[k - 1])
    return CoinWalkerState(initial.spin, up, down)


def evolve_bytes(two_j: int, steps: int) -> int:
    """The bytes of `evolve`'s (2, steps + 1, 2J + 1) complex branches."""
    return 32 * (steps + 1) * (two_j + 1)


def reduce_walker(state: CoinWalkerState) -> DensityMatrix:
    """Trace out the coin: rho_w = |up><up| + |down><down|."""
    rho = np.outer(state.up, state.up.conj()) + np.outer(state.down,
                                                         state.down.conj())
    return DensityMatrix(state.spin, rho)


def ideal_walk(sites: int, steps: int, coin: np.ndarray,
               coin_state: tuple[complex, complex] = (1.0, 0.0),
               seam: int = 1) -> np.ndarray:
    """Exact unitary walk with orthogonal site states, starting at site 0,
    on a ring whose seam multiplies the amplitudes that wrap (up from site
    L-1 to 0, down from 0 to L-1) by `seam`.  The walker of N spins has
    (-1)^N there: each step's phase e^{-i kappa J} gauges into the site
    states, except the L of a lap, e^{-2 pi i J}, left at the seam.

    Returns the (steps + 1, sites) probabilities of steps 0 .. steps, each
    row over the balanced site range of SiteIndexing(sites).site_numbers
    (ascending).
    """
    indexing = SiteIndexing(sites)      # raises for fewer than 2 sites
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    amp = np.zeros((sites, 2), dtype=complex)   # indexed by site mod L
    cu, cd = coin_state
    scale = math.sqrt(abs(cu) ** 2 + abs(cd) ** 2)
    amp[0] = (cu / scale, cd / scale)

    order = indexing.site_numbers % sites       # balanced order -> mod-L rows
    probs = np.empty((steps + 1, sites))
    probs[0] = (np.abs(amp[order]) ** 2).sum(axis=1)
    for k in range(1, steps + 1):
        mixed = amp @ coin.T
        amp[1:, 0], amp[0, 0] = mixed[:-1, 0], seam * mixed[-1, 0]  # up
        amp[:-1, 1], amp[-1, 1] = mixed[1:, 1], seam * mixed[0, 1]  # down
        probs[k] = (np.abs(amp[order]) ** 2).sum(axis=1)
    return probs


def ideal_walk_bytes(sites: int, steps: int) -> int:
    """What `ideal_walk` holds: its (steps + 1, sites) table, and 128 bytes
    a site for its amplitudes and one step's products (fitted)."""
    return 8 * (steps + 1) * sites + 128 * sites


def _unit_totals(totals, bound: float, what: str, error=ValueError,
                 first: int = 0, advice: str = "") -> np.ndarray:
    """|total - 1| per step; raises `error` naming the first step (counted
    from `first`) whose total misses 1 by more than bound, or is NaN, with
    the advice, if any, after it."""
    residuals = np.abs(totals - 1.0)
    bad = np.flatnonzero(~(residuals <= bound))
    if bad.size:
        suffix = f"; {advice}" if advice else ""
        raise error(f"step {first + bad[0]}: {what} "
                    f"{float(np.ravel(totals)[bad[0]])!r}, not 1{suffix}")
    return residuals


def ideal_sigma(probabilities: np.ndarray, indexing: SiteIndexing):
    """sqrt(<phi^2> - <phi>^2) over unwrapped phi_n = n * delta_phi, one
    per row (step) of probabilities over the sites; a row total more than
    1e-9 from 1 raises ValueError naming its step."""
    p = np.asarray(probabilities, dtype=float)
    _unit_totals(p.sum(axis=-1), 1e-9, "probabilities sum to")
    phi = indexing.site_numbers * indexing.delta_phi
    mean = np.vecdot(p, phi)
    second = np.vecdot(p, phi * phi)
    return np.sqrt(np.maximum(0.0, second - mean * mean))
