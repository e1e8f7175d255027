"""SU(2) Wigner function via the Stratonovich-Weyl kernel, and the exact
azimuthal marginal with its site-binned probabilities and its spread.

Both go through the same harmonics.  With K = d(theta) diag(Delta)
d(theta)^T, W(theta, phi) = sum_{a,b} K[a, b] rho[a, b] e^{i q phi}
(q = b - a), so each theta gives a trigonometric polynomial in phi whose
harmonics are the diagonal sums of K o rho.  The marginal integrates W
sin(theta) over theta first, which turns K into one state-independent real
symmetric matrix (`_theta_kernel`, closed form from the J_y eigensystem),
against which a pure state's amplitudes give the harmonics of every step
at once; its site bins and spread are closed-form sums over them.

The grid serves `wigner` output only: Gauss-Legendre nodes in cos(theta)
crossed with a uniform phi grid on [-pi, pi).  The cos-theta rule is exact
only for the even-q harmonics of W, which are polynomials of degree 2J in
cos theta; an odd-q harmonic carries a factor sin theta and converges only
algebraically in n_theta.  The kernels K_i are cached per spin and
resolution, for half the nodes only: the nodes are symmetric about pi/2 and
K(pi - theta) = J K(theta) J with J the index reversal, so the row at
pi - theta_i takes K_i against J rho^T J.  The cache holds each K_i's upper
diagonals, diagonal-major (kd[q, i, a] = K_i[a, a+q]), so the harmonics of
every row come from one batched real product of kd with the diagonals of
rho and J rho^T J (rho's read backwards; a pure state's straight from its
amplitudes, `_rho_diagonals`), and a grid costs that product plus one
inverse FFT of length n_phi per row.  P(phi) and the site bins are periodic
sums of harmonics too, summed the same way (`_periodic_sum`).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
# numpy loads its fft module on first use; loading it with this module keeps
# that cost out of the first periodic sum, which the CLI may run on its own
import numpy.fft  # noqa: F401
from numpy.lib.stride_tricks import sliding_window_view

from .coherent import SiteIndexing
from .su2 import SpinQuantum, _jy_eigensystem, cg_l0_family, small_d_matrix
from .walk import CoinWalkerState, DensityMatrix

__all__ = [
    "NumericalInvariantError",
    "WignerGrid",
    "PhiDistribution",
    "kernel_weights",
    "wigner_grid",
    "marginal_phi",
    "sigma_from_marginal",
]


class NumericalInvariantError(RuntimeError):
    """A numerical identity that should hold to tolerance was violated."""


# four spins, as `_theta_kernel` and `_jy_eigensystem` keep
@functools.lru_cache(maxsize=4)
def kernel_weights(spin: SpinQuantum) -> np.ndarray:
    """Stratonovich-Weyl kernel eigenvalues (read-only), indexed m = J..-J:
    Delta_{j,m} = sum_l (2l+1)/(2j+1) <j m; l 0 | j m>, l = 0 .. 2j, each an
    exactly rounded sum over one row of the `cg_l0_family` table.

    They sum to 1 (only the l = 0 coupling survives the m-sum) but are not
    symmetric under m -> -m: flipping m flips the sign of every odd-l
    coupling, e.g. (1 +/- sqrt 3)/2 for spin 1/2.  Raises
    NumericalInvariantError when a row misses the sum rule
    sum_l (2l+1) <j m; l 0 | j m>^2 = 2j+1 by more than 1e-10.
    """
    tj = spin.two_j
    lcoef = (2.0 * np.arange(tj + 1) + 1.0) / (tj + 1.0)
    table = cg_l0_family(tj)
    residual = np.abs(table * table @ lcoef - 1.0).max()
    if not residual <= 1e-10:
        raise NumericalInvariantError(
            f"Clebsch-Gordan sum rule off by {residual:.2e} at two_j={tj}")
    delta = np.fromiter(map(math.fsum, table * lcoef), float, spin.dim)
    delta.flags.writeable = False       # cached: callers share this array
    return delta


def _phi_nodes(n_phi: int) -> np.ndarray:
    """n_phi uniform nodes on [-pi, pi)."""
    return -math.pi + 2.0 * math.pi * np.arange(n_phi) / n_phi


@dataclass(frozen=True)
class WignerGrid:
    """W sampled on theta quadrature nodes x phi grid."""

    spin: SpinQuantum
    theta_nodes: np.ndarray
    theta_weights: np.ndarray     # Gauss-Legendre weights in cos(theta)
    phi_nodes: np.ndarray         # uniform on [-pi, pi)
    values: np.ndarray = field(repr=False)   # (n_theta, n_phi)
    state: object = field(repr=False)        # the state W was built from

    @property
    def phi_spacing(self) -> float:
        """Cell width of the uniform phi grid on [-pi, pi)."""
        return 2.0 * math.pi / len(self.phi_nodes)

    def normalization(self) -> float:
        """(2J+1)/(4 pi) * discretized integral of W over the sphere."""
        return float((self.spin.two_j + 1) / (4.0 * math.pi)
                     * self.theta_weights @ self.values.sum(axis=1)
                     * self.phi_spacing)


def _diagonals(a: np.ndarray) -> np.ndarray:
    """d[..., q, i] = a[..., i, i+q] for q = 0 .. n-1 over the last two
    axes, zero where i + q >= n.  With the rows of each matrix laid end to
    end in rows of n+1, a[i, i+q] falls in column q; triu clears the entries
    that would wrap in from the lower triangle."""
    n, lead = a.shape[-1], a.shape[:-2]
    flat = np.concatenate((np.triu(a).reshape(*lead, n * n),
                           np.zeros((*lead, n), a.dtype)), axis=-1)
    return flat.reshape(*lead, n, n + 1)[..., :n].swapaxes(-1, -2)


# An entry holds 16 n_theta bytes; eight entries let a scan cycling a few
# resolutions past the two-entry stack cache still hit.
@functools.lru_cache(maxsize=8)
def _gauss_legendre(n_theta: int):
    """(theta_nodes, weights) of the n_theta-node Gauss-Legendre rule in
    cos(theta), theta ascending in (0, pi), both read-only."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x[::-1])
    w = w[::-1].copy()
    for a in (theta, w):
        a.flags.writeable = False       # cached: every grid shares these
    return theta, w


# Two entries bound the memory: each stack holds ceil(n_theta/2) (2J+1)^2
# floats.
@functools.lru_cache(maxsize=2)
def _theta_frame_stack(two_j: int, n_theta: int):
    """(theta_nodes, GL weights, kernel diagonals) for one (j, resolution),
    all read-only.  The nodes are symmetric about pi/2 and
    K(pi - theta) = J K(theta) J (J reverses the index), so only the
    kernels K_i = d(theta_i) diag(Delta) d(theta_i)^T of the
    ceil(n_theta/2) nodes with theta_i <= pi/2 are kept, diagonal-major:
    kd[q, i, a] = K_i[a, a+q]."""
    theta, w = _gauss_legendre(n_theta)
    spin = SpinQuantum(two_j)
    delta = kernel_weights(spin)
    kd = np.empty((two_j + 1, (n_theta + 1) // 2, two_j + 1))
    for i in range(kd.shape[1]):
        d = small_d_matrix(spin, float(theta[i]))
        kd[:, i] = _diagonals((d * delta) @ d.T)
    kd.flags.writeable = False          # cached: every grid shares it
    return theta, w, kd


@functools.lru_cache(maxsize=4)
def _theta_kernel(spin: SpinQuantum) -> np.ndarray:
    """kd[q, a] = K[a, a+q] for K[a, b] = integral_0^pi sin(t) sum_m
    Delta_m d_am(t) d_bm(t) dt, read-only.  Cached for four spins: an entry
    holds 8 (2J+1)(2J+2) bytes (0.3 MB at N = 200, 8 MB at N = 1000), and a
    scan cycling up to four spin counts still hits.

    With the signed real form of `small_d_matrix`,
    d(t) = s o (R diag(cos lam t + sin lam t) R^T), the integral is
    K = s o (R (M o G) R^T) with the real M = R^T diag(Delta) R and
    G_kl = g(lam_k - lam_l), g(n) = integral_0^pi sin(t) (cos nt + sin nt)
    dt: 2/(1 - n^2) for even n, n pi/2 for n = +-1 and 0 otherwise
    (lam_k - lam_l is an integer).
    """
    lam, r, signs = _jy_eigensystem(spin.two_j)
    n = lam[:, None] - lam[None, :]
    g = np.zeros(n.shape)
    even = n % 2 == 0
    g[even] = 2.0 / (1.0 - n[even] ** 2)
    odd_one = np.abs(n) == 1
    g[odd_one] = 0.5 * math.pi * n[odd_one]
    m = (r.T * kernel_weights(spin)) @ r
    kd = _diagonals(signs * ((r @ (m * g)) @ r.T))
    kd.flags.writeable = False          # cached: every marginal shares it
    return kd


def _rho_diagonals(state) -> tuple[SpinQuantum, np.ndarray]:
    """rho's upper diagonals t[q, a] = rho[a, a+q], zero where a + q > 2J.
    A pure composite state gives rho[a, a+q] = u_a conj(u_{a+q}) +
    d_a conj(d_{a+q}) from windows of its zero-padded conjugate amplitudes,
    win[a, q] = conj(u_{a+q}), with no (2J+1)^2 matrix."""
    if isinstance(state, CoinWalkerState):
        n = state.spin.dim
        win = sliding_window_view(np.pad(np.conj((state.up, state.down)),
                                         ((0, 0), (0, n - 1))), n, axis=1)
        return state.spin, state.up * win[0].T + state.down * win[1].T
    if isinstance(state, DensityMatrix):
        return state.spin, _diagonals(state.entries)
    raise TypeError(f"expected CoinWalkerState or DensityMatrix, "
                    f"got {type(state).__name__}")


def wigner_grid(state, resolution: tuple[int, int]) -> WignerGrid:
    """Evaluate W on the product grid for one pure composite state (a step
    of a walk) or a density matrix.

    Row i is g_i[0] + 2 Re sum_q g_i[q] e^{i q phi} with the harmonics
    g_i[q] = sum_a K_i[a, a+q] rho[a, a+q] of the node's kernel K_i, summed
    on the phi nodes as `marginal_phi` sums P(phi), so n_phi <= 2J aliases
    exactly.  The mirrored row theta_{n-1-i} = pi - theta_i takes the same
    K_i diagonals against those of J rho^T J, so all harmonics come from
    one batched real product.  Warns when the discretized normalization
    misses 1 by more than 1e-4 (resolution too low for this j).
    """
    n_theta, n_phi = resolution
    if isinstance(state, CoinWalkerState) and state.up.ndim != 1:
        raise ValueError("wigner_grid takes one step of a walk; index the "
                         "stacked walk (states[k])")
    spin, rho = _rho_diagonals(state)
    if n_theta < 2:
        raise ValueError("need at least 2 theta nodes")

    theta, w_theta, kd = _theta_frame_stack(spin.two_j, n_theta)
    # the diagonals of rho and of J rho^T J, as 4 real columns Re, Im per
    # q; J rho^T J's q-th is row q of rho's table reversed, from entry q on
    cols = np.empty((spin.dim, spin.dim, 2), complex)
    cols[..., 0] = rho
    cols[..., 1] = _diagonals(rho[:, ::-1]).T
    g = (kd @ cols.view(float)).view(complex)     # (q, node, 2)
    mirrored = g[:, :n_theta - kd.shape[1], 1]
    harmonics = np.concatenate((g[:, :, 0], mirrored[:, ::-1]), axis=1)
    values = _phi_node_sum(harmonics, n_phi).T

    grid = WignerGrid(spin, theta, w_theta, _phi_nodes(n_phi), values, state)
    residual = abs(grid.normalization() - 1.0)
    if not residual <= 1e-4:
        warnings.warn(
            f"Wigner grid normalization off by {residual:.2e}; increase the "
            f"grid resolution (n_theta >= 2J+2 and n_phi > 2J recommended)",
            stacklevel=2)
    return grid


@dataclass(frozen=True)
class PhiDistribution:
    """Azimuthal marginal P(phi) = sum_{|q| <= 2J} p_q e^{i q phi} of one
    state, or one per step of a stack: its harmonics p_q (q = 0 .. 2J on
    the last axis; p_{-q} = conj(p_q)), from which P on the phi nodes and
    the site-binned probabilities are summed anew on every access."""

    phi_nodes: np.ndarray
    site_numbers: np.ndarray
    harmonics: np.ndarray = field(repr=False)

    def __getitem__(self, k) -> "PhiDistribution":
        """Step k of a stacked distribution."""
        return PhiDistribution(self.phi_nodes, self.site_numbers,
                               self.harmonics[k])

    @property
    def density(self) -> np.ndarray:
        """P on the phi nodes, (..., n_phi)."""
        return _phi_node_sum(self.harmonics.T, len(self.phi_nodes)).T

    @property
    def site_probabilities(self) -> np.ndarray:
        """The probability of each site bin [phi_n - pi/L, phi_n + pi/L),
        (..., L): a bin integrates e^{iq phi} to e^{iq phi_n} (2 pi/L)
        sinc(q/L), a periodic sum over the site numbers n mod L, folded
        into FFT buffers of at most 2^16 cells."""
        n_sites, dim = len(self.site_numbers), self.harmonics.shape[-1]
        bin_integrals = (2.0 * math.pi / n_sites) * np.sinc(
            np.arange(dim) / n_sites)
        terms = (self.harmonics * bin_integrals).reshape(-1, dim)
        probs = np.empty((len(terms), n_sites))
        chunk = max(1, 2 ** 16 // (dim + n_sites))     # steps a buffer
        rows = self.site_numbers % n_sites
        for i in range(0, len(terms), chunk):
            probs[i:i + chunk] = _periodic_sum(terms[i:i + chunk].T,
                                               n_sites)[rows].T
        return probs.reshape(*self.harmonics.shape[:-1], n_sites)

    @property
    def total(self):
        """Integral of P over [-pi, pi): 2 pi Re p_0, one per step."""
        return 2.0 * math.pi * self.harmonics[..., 0].real


def _periodic_sum(h: np.ndarray, period: int) -> np.ndarray:
    """h_0 + 2 Re sum_{q>=1} h_q e^{2 pi i q k / period} at k = 0 ..
    period - 1, for harmonics h_q along the first axis of `h` (only Re h_0
    counts).  The harmonics fold modulo the period, which is exact
    aliasing, into one buffer that one inverse FFT sums in place."""
    laps = -(-len(h) // period)
    folded = np.zeros((laps * period, *h.shape[1:]), complex)
    folded[:len(h)] = h
    folded[0] = 0.5 * h[0]
    if laps > 1:
        folded = folded.reshape(laps, period, *h.shape[1:]).sum(axis=0)
    return 2.0 * np.fft.ifft(folded, axis=0, norm="forward", out=folded).real


def _phi_node_sum(h: np.ndarray, n_phi: int) -> np.ndarray:
    """h_0 + 2 Re sum_{q>=1} h_q e^{i q phi} on the n_phi uniform nodes,
    for harmonics h_q along the first axis of `h`."""
    # node j sits at -pi + 2 pi j / n_phi, and e^{-i q pi} = (-1)^q
    alt = np.where(np.arange(len(h)) % 2, -1.0, 1.0)
    return _periodic_sum((h.T * alt).T, n_phi)


def marginal_phi(source, indexing: SiteIndexing,
                 n_phi: int | None = None) -> PhiDistribution:
    """Exact P(phi) = (2J+1)/(4 pi) * integral of W sin(theta) d(theta) of a
    state (pure composite or density matrix) on n_phi uniform nodes, or of
    the state a WignerGrid was built from on the grid's phi nodes, plus the
    probability of each site bin [phi_n - pi/L, phi_n + pi/L); for every
    step at once when a pure state's amplitudes carry a leading step axis.

    p_q = (2J+1)/(4 pi) * sum_a K[a, a+q] rho[a, a+q] (K: `_theta_kernel`),
    where a pure state gives rho[a, a+q] = u_a conj(u_{a+q}) +
    d_a conj(d_{a+q}) with no (2J+1)^2 matrix.
    """
    if isinstance(source, WignerGrid):
        source, n_phi = source.state, len(source.phi_nodes)
    elif n_phi is None:
        raise ValueError("n_phi is required unless the source is a grid")
    if isinstance(source, CoinWalkerState):
        spin, kd = source.spin, _theta_kernel(source.spin)
        n, g = spin.dim, np.empty(source.up.shape, complex)
        for q in range(n):
            k = kd[q, :n - q]       # vecdot conjugates its first argument
            g[..., q] = sum(np.vecdot(u[..., q:], k * u[..., :n - q])
                            for u in (source.up, source.down))
    else:
        spin, rho = _rho_diagonals(source)
        g = (_theta_kernel(spin) * rho).sum(axis=-1)
    g *= spin.dim / (4.0 * math.pi)
    return PhiDistribution(_phi_nodes(n_phi), indexing.site_numbers, g)


def sigma_from_marginal(dist: PhiDistribution):
    """sqrt(<phi^2> - <phi>^2) of P on phi in [-pi, pi), one per step, in
    closed form: over that interval e^{iq phi} integrates against phi to
    -2 pi i (-1)^q / q and against phi^2 to 4 pi (-1)^q / q^2."""
    total = dist.total
    bad = np.ravel(total)[~(np.abs(np.ravel(total) - 1.0) <= 1e-4)]
    if bad.size:
        raise ValueError(f"marginal integrates to {float(bad[0])!r}, not 1")
    p = dist.harmonics
    q = np.arange(1, p.shape[-1])
    alt = np.where(q % 2, -1.0, 1.0)
    mean = 4.0 * math.pi * np.vecdot(p[..., 1:].imag, alt / q) / total
    second = (2.0 * math.pi ** 3 / 3.0 * p[..., 0].real
              + 8.0 * math.pi * np.vecdot(p[..., 1:].real, alt / (q * q))
              ) / total
    return np.sqrt(np.maximum(0.0, second - mean * mean))
