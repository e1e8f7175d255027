"""SU(2) Wigner function on a spherical grid via the Stratonovich-Weyl
kernel, with the azimuthal marginal, its site-binned probabilities and its
spread.

Grid layout: Gauss-Legendre nodes in cos(theta) (exact for the degree-2J
polynomial that W is in cos theta) crossed with a uniform phi grid on
[-pi, pi).  Evaluation precomputes one d-matrix per theta node and lets phi
enter only through diagonal phases, so a full grid costs n_theta dense
matmuls instead of n_theta * n_phi frame constructions.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coherent import SiteIndexing
from .su2 import SpinQuantum, cg_l0_family, small_d_matrix
from .walk import CoinWalkerState, DensityMatrix

__all__ = [
    "NumericalInvariantError",
    "WignerGrid",
    "PhiDistribution",
    "kernel_weights",
    "wigner_grid",
    "marginal_phi",
    "sigma_from_marginal",
    "tv_distance",
]


class NumericalInvariantError(RuntimeError):
    """A numerical identity that should hold to tolerance was violated."""


@functools.lru_cache(maxsize=None)
def kernel_weights(spin: SpinQuantum) -> np.ndarray:
    """Stratonovich-Weyl kernel eigenvalues (read-only), indexed m = J..-J:
    Delta_{j,m} = sum_l (2l+1)/(2j+1) <j m; l 0 | j m>, l = 0 .. 2j.

    They sum to 1 (only the l = 0 coupling survives the m-sum) but are not
    symmetric under m -> -m: flipping m flips the sign of every odd-l
    coupling, e.g. (1 +/- sqrt 3)/2 for spin 1/2.
    """
    tj = spin.two_j
    lcoef = (2.0 * np.arange(tj + 1) + 1.0) / (tj + 1.0)
    delta = np.empty(spin.dim)
    for i, two_m in enumerate(range(tj, -tj - 1, -2)):
        delta[i] = math.fsum(lcoef * cg_l0_family(tj, two_m))
    delta.flags.writeable = False       # cached: callers share this array
    return delta


class _PhiNodes:
    @property
    def phi_spacing(self) -> float:
        """Cell width of the uniform phi grid on [-pi, pi)."""
        return 2.0 * math.pi / len(self.phi_nodes)


@dataclass(frozen=True)
class WignerGrid(_PhiNodes):
    """W sampled on theta quadrature nodes x phi grid."""

    spin: SpinQuantum
    theta_nodes: np.ndarray
    theta_weights: np.ndarray     # Gauss-Legendre weights in cos(theta)
    phi_nodes: np.ndarray         # uniform on [-pi, pi)
    values: np.ndarray = field(repr=False)   # (n_theta, n_phi)

    def normalization(self) -> float:
        """(2J+1)/(4 pi) * discretized integral of W over the sphere."""
        return float((self.spin.two_j + 1) / (4.0 * math.pi)
                     * self.theta_weights @ self.values.sum(axis=1)
                     * self.phi_spacing)


# Two entries bound the memory: each stack holds n_theta * (2J+1)^2 floats.
@functools.lru_cache(maxsize=2)
def _theta_frame_stack(two_j: int, n_theta: int):
    """(theta_nodes, GL weights, d-matrix stack) for one (j, resolution),
    all read-only."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x[::-1])          # ascending theta in (0, pi)
    w = w[::-1].copy()
    spin = SpinQuantum(two_j)
    stack = np.empty((n_theta, two_j + 1, two_j + 1))
    for i, t in enumerate(theta):
        stack[i] = small_d_matrix(spin, float(t))
    for a in (theta, w, stack):
        a.flags.writeable = False       # cached: every grid shares these
    return theta, w, stack


def _state_vectors(state) -> tuple[SpinQuantum, np.ndarray, np.ndarray]:
    """Decompose the input into weighted vectors: rho = sum_r c_r v_r v_r^+."""
    if isinstance(state, CoinWalkerState):
        vecs = np.stack([state.up, state.down], axis=1)
        coefs = np.array([1.0, 1.0])
        return state.spin, vecs, coefs
    if isinstance(state, DensityMatrix):
        evals, evecs = np.linalg.eigh(state.entries)
        keep = np.abs(evals) > 1e-13
        return state.spin, evecs[:, keep], evals[keep]
    raise TypeError(f"expected CoinWalkerState or DensityMatrix, "
                    f"got {type(state).__name__}")


def wigner_grid(state, resolution: tuple[int, int],
                weights: np.ndarray | None = None) -> WignerGrid:
    """Evaluate W on the product grid for a pure composite state or a
    density matrix.

    For a CoinWalkerState the diagonal matrix elements are
    |<j,m;d|up>|^2 + |<j,m;d|down>|^2, so no density matrix is formed; a
    DensityMatrix input is eigendecomposed and negligible eigenvalues are
    dropped.  Warns when the discretized normalization misses 1 by more
    than 1e-4 (resolution too low for this j).
    """
    n_theta, n_phi = resolution
    spin, vecs, coefs = _state_vectors(state)
    if n_theta < 2:
        raise ValueError("need at least 2 theta nodes")
    if weights is None:
        weights = kernel_weights(spin)
    if weights.shape != (spin.dim,):
        raise ValueError("state and kernel weights disagree on j")

    theta, w_theta, dstack = _theta_frame_stack(spin.two_j, n_theta)
    phi = -math.pi + 2.0 * math.pi * np.arange(n_phi) / n_phi

    # <j,m;d(theta,phi)|v> = sum_m' d_{m',m}(theta) e^{i phi m'} v_{m'}
    phases = np.exp(1j * np.outer(spin.m_values, phi))      # (dim, n_phi)
    values = np.empty((n_theta, n_phi))
    n_vec = vecs.shape[1]
    chunk = min(n_vec, 64)
    # phase-modulated copies of each vector, flattened over (vector, phi)
    blocks = []
    for start in range(0, n_vec, chunk):
        v = vecs[:, start:start + chunk]
        mod = phases[:, None, :] * v[:, :, None]             # (dim, c, n_phi)
        blocks.append((mod.reshape(spin.dim, -1), coefs[start:start + chunk]))

    for i in range(n_theta):
        d_t = dstack[i].T
        row = np.zeros(n_phi)
        for mod, c in blocks:
            # real matmul on the interleaved view is ~4x faster than complex
            amps = (d_t @ mod.view(np.float64).reshape(spin.dim, -1)) \
                .reshape(spin.dim, -1, 2)
            prob = amps[..., 0] ** 2 + amps[..., 1] ** 2
            prob = prob.reshape(spin.dim, len(c), n_phi)
            row += weights @ (prob * c[None, :, None]).sum(axis=1)
        values[i] = row

    grid = WignerGrid(spin, theta, w_theta, phi, values)
    residual = abs(grid.normalization() - 1.0)
    if not residual <= 1e-4:
        warnings.warn(
            f"Wigner grid normalization off by {residual:.2e}; increase the "
            f"grid resolution (n_theta >= 2J+2 and n_phi > 2J recommended)",
            stacklevel=2)
    return grid


@dataclass(frozen=True)
class PhiDistribution(_PhiNodes):
    """Azimuthal marginal P(phi) plus its site-binned probabilities."""

    phi_nodes: np.ndarray
    density: np.ndarray
    site_numbers: np.ndarray
    site_probabilities: np.ndarray


def marginal_phi(grid: WignerGrid, indexing: SiteIndexing) -> PhiDistribution:
    """P(phi) = (2J+1)/(4 pi) * integral of W sin(theta) d(theta), plus the
    probability of each site bin [phi_n - dphi/2, phi_n + dphi/2).

    A node exactly on a bin edge gives half its mass to each of the two
    bins; every other node gives all of it to its nearest site.
    """
    density = ((grid.spin.two_j + 1) / (4.0 * math.pi)
               * grid.theta_weights @ grid.values)
    sites = indexing.site_numbers
    nearest, frac = indexing.nearest_site(grid.phi_nodes)
    edge = np.abs(np.abs(frac) - 0.5) < 1e-9
    other = nearest + np.where(frac > 0, 1, -1)
    mass = density * grid.phi_spacing
    half = 0.5 * density * grid.phi_spacing
    # (nearest, other) per node in node order, so each bin sums its masses in
    # the order of the nodes; non-edge nodes pad `other` with 0.0
    bins = indexing.wrap(np.stack([nearest, other], axis=1)) - sites[0]
    masses = np.stack([np.where(edge, half, mass),
                       np.where(edge, half, 0.0)], axis=1)
    site_prob = np.bincount(bins.ravel(), masses.ravel(), len(sites))
    return PhiDistribution(grid.phi_nodes, density, sites, site_prob)


def sigma_from_marginal(dist: PhiDistribution) -> float:
    """sqrt(<phi^2> - <phi>^2) of the density on phi in [-pi, pi)."""
    d, phi, width = dist.density, dist.phi_nodes, dist.phi_spacing
    total = float(d.sum()) * width
    if not abs(total - 1.0) <= 1e-4:
        raise ValueError(f"marginal integrates to {total!r}, not 1")
    mean = float(d @ phi) * width / total
    second = float(d @ (phi * phi)) * width / total
    return math.sqrt(max(0.0, second - mean * mean))


def tv_distance(p, q) -> float:
    """Total-variation distance: half the L1 distance between distributions."""
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())
