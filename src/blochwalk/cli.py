"""Command-line front end: parse a run configuration, execute the walk, and
emit deterministic CSV / JSON / SVG artifacts.

Output conventions: CSV with one header line, %.12e numbers, comma
separator, LF endings, written in chunks of fixed-width cells by one writer
(`_write_csv`); JSON manifest with sorted keys, written last, listing every
emitted file with the sha256 its emitter took of the bytes written.  Every
CSV number is an exact vectorized %.12e (`_sci_cells`): the same bytes as
Python's `%`, which formats the values it cannot certify.
Exit codes: 0 success, 2 configuration error, 3 numerical-invariant
violation, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .coherent import SiteIndexing
from .render import render_heatmap_svg, write_hashed
from .su2 import SpinQuantum
from .walk import (CoinPulse, WalkSchedule, coin_unitary, evolve,
                   ideal_sigma, ideal_walk, initial_state)
# unused here, but perfbench/tracer.py binds blochwalk.cli.kernel_weights
from .wigner import (_SITE_CHUNK_CELLS, NumericalInvariantError,
                     _stack_shape, kernel_weights, marginal_phi,
                     sigma_from_marginal, wigner_grid)

__all__ = ["RunConfig", "ConfigError", "parse_config", "run_experiment",
           "main"]

ALL_OUTPUTS = ("wigner", "marginal", "sites", "sigma", "ideal")
# outputs that need the walker's exact azimuthal marginal; only `wigner`
# builds grids
KERNEL_OUTPUTS = frozenset({"wigner", "marginal", "sites", "sigma"})
# a run whose estimated working set exceeds this is refused up front
MAX_RUN_BYTES = 2 * 1024 ** 3
# the most theta nodes a `wigner` run takes, a bound on time: the theta
# rule's O(n_theta^2) Newton iteration takes about 0.9 s there on one core
# of a 2-core Xeon VM
MAX_GRID_THETA = 11216

# keys a --config file may set; each names the flag it stands for
_CONFIG_KEYS = ("sites", "spins", "steps", "coin", "theta0", "grid-theta",
               "grid-phi", "outputs", "out", "svg")
_SVG_FLAGS = {"true": "--svg", "1": "--svg", "false": "--no-svg",
              "0": "--no-svg"}


class ConfigError(ValueError):
    """Bad flag, config key or value; maps to exit code 2."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    sites: int
    spins: int
    steps: int
    coin: tuple          # ("hadamard",) or ("custom", hx, hy, hz)
    theta0: float
    grid_theta: int
    grid_phi: int
    outputs: frozenset
    out: Path
    svg: bool

    def pulse(self) -> CoinPulse:
        if self.coin[0] == "hadamard":
            return CoinPulse.hadamard()
        return CoinPulse(tuple(self.coin[1:]))

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), "coin": list(self.coin),
                "outputs": sorted(self.outputs), "out": str(self.out)}


def _parse_coin(spec: str) -> tuple:
    tokens = spec.split()
    if len(tokens) == 1 and tokens[0] == "hadamard":
        return ("hadamard",)
    if len(tokens) == 4 and tokens[0] == "custom":
        try:
            hx, hy, hz = (float(t) for t in tokens[1:])
        except ValueError as exc:
            raise ConfigError(f"--coin custom: malformed number in "
                              f"{tokens[1:]!r}") from exc
        # |h|^2 as coin_unitary forms it: NaN, inf and overflow all fail
        if not math.isfinite(hx * hx + hy * hy + hz * hz):
            raise ConfigError(f"--coin custom: |h|^2 is not finite for "
                              f"{tokens[1:]!r}")
        return ("custom", hx, hy, hz)
    raise ConfigError(
        f"--coin expects 'hadamard' or 'custom hx hy hz', got {tokens!r}")


class _CoinAction(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, _parse_coin(values))


def _joined_coin_specs(argv) -> list:
    """argv with each `--coin custom hx hy hz` (or `--coin hadamard`) joined
    into one token `--coin=custom hx hy hz`.  argparse takes a token that
    starts with "-" and is not a plain decimal (-1e-12, -1E5, -inf) for an
    option, so the components are taken here, whatever they look like;
    `--coi` is the one abbreviation argparse would also accept."""
    argv, joined = list(argv), []
    while argv:
        token = argv.pop(0)
        if token in ("--coin", "--coi") and argv:
            count = 4 if argv[0] == "custom" else 1
            token = "--coin=" + " ".join(argv[:count])
            del argv[:count]
        joined.append(token)
    return joined


def _parse_outputs(text: str) -> frozenset:
    parts = {p.strip() for p in text.split(",") if p.strip()}
    if not parts or parts - set(ALL_OUTPUTS):
        raise argparse.ArgumentTypeError(
            f"expected a comma list of at least one of "
            f"{','.join(ALL_OUTPUTS)}, got {text!r}")
    return frozenset(parts)


def _read_config_file(parser: argparse.ArgumentParser,
                      path: str) -> argparse.Namespace:
    """Flat `key = value` file; each line is parsed by `parser` as the flag
    `--key value` (`svg = true|false` as `--svg` / `--no-svg`) into one
    namespace, which the first line fills with every default."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    ns = argparse.Namespace()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "svg":
            # any other value reaches argparse as `--svg=VALUE`, an error
            tokens = [_SVG_FLAGS.get(val.lower(), f"--svg={val}")]
        else:
            tokens = [f"--{key}={val}"]
        try:
            parser.parse_args(tokens, ns)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed value {val!r} "
                              f"for {key}: {exc}") from exc
    return ns


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError instead of printing usage and exiting."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="blochwalk",
        description="Discrete-time quantum walk on the Bloch sphere")
    p.add_argument("--sites", type=int, default=6,
                   help="number of ring sites L")
    p.add_argument("--spins", type=int, default=50,
                   help="spins N in the walker cluster")
    p.add_argument("--steps", type=int, default=2, help="walk steps k")
    p.add_argument("--coin", metavar="SPEC", action=_CoinAction,
                   default=("hadamard",),
                   help="'hadamard' or 'custom hx hy hz'")
    p.add_argument("--theta0", type=float, default=math.pi / 2.0,
                   help="walk latitude (radians)")
    p.add_argument("--grid-theta", type=int, dest="grid_theta",
                   help="theta nodes of the Wigner grid (default 2J+2)")
    p.add_argument("--grid-phi", type=int, dest="grid_phi",
                   help="phi nodes of the Wigner grid and the marginal "
                        "CSV (default: the smallest multiple of L above 2J, "
                        "at least 8L, and an even one at odd L)")
    p.add_argument("--outputs", type=_parse_outputs,
                   default=frozenset(ALL_OUTPUTS),
                   help="comma list of " + ",".join(ALL_OUTPUTS))
    p.add_argument("--out", default="out",
                   help="output directory (default ./out)")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--svg", dest="svg", action="store_true", default=True,
                   help="render Wigner heatmaps as SVG (default)")
    p.add_argument("--no-svg", dest="svg", action="store_false")
    p.add_argument("--version", action="version", version=__version__)
    return p


def _estimated_bytes(config: RunConfig) -> int:
    """Rough peak memory of the run: the sum of what it holds, term by
    term as the comments name them, each a tracemalloc measurement rounded
    up, though the terms are never all held at once."""
    dim, rows = config.spins + 1, (config.steps + 1) * config.sites
    wigner = "wigner" in config.outputs
    files = ("marginal" in config.outputs) + wigner * (1 + config.svg)
    total = 256 * 1024                                   # floor
    kernel = bool(config.outputs & KERNEL_OUTPUTS)
    # per step of a kernel output: the walk's stacked amplitudes, the
    # harmonics and one weighted slice of them; the step's residual; and
    # the manifest entries of its files
    total += kernel * (config.steps + 1) * (64 * dim + 150 + 700 * files)
    # the ideal walk, and per step the site probabilities it and `sites` keep
    kept = bool(config.outputs & {"ideal", "sigma"})
    kept += "sites" in config.outputs
    total += 128 * config.sites + 8 * kept * rows
    # a CSV chunk, or a block of SVG rows at up to one rect a cell, holds at
    # least one row of grid_phi cells
    svg = wigner and config.svg
    total += (224 if svg else 160) * max(_CHUNK_CELLS,
                                         wigner * config.grid_phi)
    if kernel:
        total += 32 * dim * dim + 2000 * dim             # K build
        total += 64 * (config.grid_phi + config.sites + 2 * dim)   # FFTs
    if "sites" in config.outputs:
        # one chunk of site bins: its FFT buffer and its laps added, or
        # their real part and its gathered rows
        total += 32 * max(_SITE_CHUNK_CELLS, dim + config.sites)
    if wigner:
        total += 8 * math.prod(_stack_shape(config.spins, config.grid_theta))
        # one grid's FFT buffer of ceil(dim / grid_phi) laps of its rows,
        # with its laps added or with W
        laps = -(-dim // config.grid_phi)
        total += 16 * (laps + 1) * config.grid_theta * config.grid_phi
    return total


def parse_config(argv=None) -> RunConfig:
    """CLI flags override config-file keys override built-in defaults."""
    parser = _build_parser()
    argv = _joined_coin_specs(sys.argv[1:] if argv is None else argv)
    ns = parser.parse_args(argv)
    if ns.config is not None:
        # argparse sets a default only on an attribute that is unset, so
        # re-parsing the flags over the file's namespace gives the order
        # flags > file > defaults
        ns = parser.parse_args(argv, _read_config_file(parser, ns.config))

    sites, spins, steps = ns.sites, ns.spins, ns.steps
    if sites < 2:
        raise ConfigError(f"--sites must be >= 2, got {sites}")
    if spins < 1:
        raise ConfigError(f"--spins must be >= 1, got {spins}")
    if steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {steps}")
    if not 0.0 < ns.theta0 < math.pi:
        raise ConfigError(f"--theta0 must lie in (0, pi), got {ns.theta0}")
    grid_theta = ns.grid_theta
    if grid_theta is None:
        grid_theta = spins + 2            # 2J + 2 with 2J = N
    if grid_theta < 2:
        raise ConfigError(f"--grid-theta must be >= 2, got {grid_theta}")
    grid_phi = ns.grid_phi
    if grid_phi is None:
        # n_phi > 2J integrates W exactly in phi; a multiple of L puts a
        # node on every site center when L or the multiple is even, so an
        # odd ring takes the next even multiple
        multiple = max(8, spins // sites + 1)
        if sites % 2:
            multiple += multiple % 2
        grid_phi = sites * multiple
    if grid_phi < sites:
        raise ConfigError(f"--grid-phi must be >= sites, got {grid_phi}")
    if "\0" in ns.out:
        raise ConfigError(f"--out must not contain a NUL byte, got {ns.out!r}")

    config = RunConfig(
        sites=sites, spins=spins, steps=steps, coin=ns.coin,
        theta0=ns.theta0, grid_theta=grid_theta, grid_phi=grid_phi,
        outputs=ns.outputs, out=Path(ns.out), svg=ns.svg,
    )
    need = _estimated_bytes(config)
    if need > MAX_RUN_BYTES:
        raise ConfigError(
            f"the run needs about {need / 2 ** 30:.1f} GiB of memory, above "
            f"the {MAX_RUN_BYTES / 2 ** 30:.0f} GiB limit; lower --spins, "
            "--steps, --sites or the grid resolution")
    if "wigner" in config.outputs and grid_theta > MAX_GRID_THETA:
        raise ConfigError(f"--grid-theta must be <= {MAX_GRID_THETA}, got "
                          f"{grid_theta}")
    if steps >= sites / 2 and "sigma" in config.outputs:
        warnings.warn(
            f"steps k={steps} reaches the wrap-around regime (k >= L/2); "
            "the reported standard deviation uses unwrapped angles and is "
            "only meaningful for short times", stacklevel=2)
    return config


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------

def _words(texts) -> np.ndarray:
    """The 4-byte ASCII texts as uint32 words, in order."""
    return np.frombuffer("".join(texts).encode(), np.uint32)


def _digit_text(places: int) -> np.ndarray:
    """(10^places, places) uint8: the zero-padded ASCII digits of
    0 .. 10^places - 1, the Cartesian power of the digits in order."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    grids = np.meshgrid(*[digits] * places, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, places)


# A `%.12e` cell is 20 bytes, five 4-byte words: [sign d0 . d1] [d2..d5]
# [d6..d9] [d10 d11 d12 e] [exponent sign, 2 or 3 digits]; bytes a value
# does not use hold _PAD and are never written.
_CELL = 20
_PAD = "\0"
_LEAD = _words(f"{sign}{k // 10}.{k % 10}" for sign in (_PAD, "-")
               for k in range(100))
_FOUR = _digit_text(4).view(np.uint32).ravel()
_THREE = np.c_[_digit_text(3),
               np.full(1000, ord("e"), np.uint8)].view(np.uint32).ravel()
# the fast path's decimal exponents, and 10^(12 - e) for each, correctly
# rounded
_E_MIN, _E_MAX = -281, 281
_EXP = _words(f"{e:+03d}".ljust(4, _PAD) for e in range(_E_MIN, _E_MAX + 1))
_SCALE = np.array([float(f"1e{12 - e}") for e in range(_E_MIN, _E_MAX + 1)])
# cells per chunk of the CSV writer (at least one row)
_CHUNK_CELLS = 4096


def _python_cells(values: np.ndarray, fmt: str = "%.12e") -> np.ndarray:
    """`fmt` of every value by Python's own formatting, as cells."""
    text = "".join((fmt % v).ljust(_CELL, _PAD) for v in values.tolist())
    return np.frombuffer(text.encode(), np.uint8).reshape(-1, _CELL)


def _sci_cells(x: np.ndarray) -> np.ndarray:
    """`%.12e` of every value of x as a (x.size, 20) uint8 array of ASCII
    cells, unused bytes _PAD; exactly the bytes `b"%.12e" % v` gives.

    Fast path, for 1e-280 < |x| < 1e280: with e = floor(log10 |x|),
    corrected once so that m = |x| 10^(12 - e) lies in [1e12, 1e13), the
    13 digits are those of n = rint(m) (n = 1e13 carries into e).  The
    scale 10^(12 - e) is a correctly rounded table entry and the product
    is rounded once, so |m - exact| <= 2u m < 2^-52 1e13 < 0.0023; n is the
    exactly rounded mantissa whenever m lies at least 0.0023 from a
    half-integer, which the check |m - n| <= 0.4977 admits.  Exact float
    floor divisions split n into digit groups, which index tables of their
    text.  Every other value (zero, NaN, +-inf, subnormals, values beyond
    1e+-280 and near-halves) is formatted by Python's `%`.  The sign is
    taken from the sign bit, so -0.0 keeps its minus sign.
    """
    x = np.ravel(x)
    a = np.abs(x)
    fast = (a > 1e-280) & (a < 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    m = a * _SCALE[e - _E_MIN]
    e += np.where(m < 1e12, -1, m >= 1e13)
    m = a * _SCALE[e - _E_MIN]
    n = np.rint(m)
    fast &= np.abs(m - n) <= 0.4977
    carry = n >= 1e13
    e += carry
    n[carry] = 1e12
    # n = lead 10^11 + b 10^7 + c 10^3 + d, every quotient exact
    lead = np.floor(n / 1e11)
    n -= 1e11 * lead
    b = np.floor(n / 1e7)
    n -= 1e7 * b
    c = np.floor(n / 1e3)
    n -= 1e3 * c
    words = np.stack((_LEAD[lead.astype(np.intp) + 100 * np.signbit(x)],
                      _FOUR[b.astype(np.intp)], _FOUR[c.astype(np.intp)],
                      _THREE[n.astype(np.intp)], _EXP[e - _E_MIN]), axis=1)
    cells = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells[slow] = _python_cells(x[slow])
    return cells


def _csv_lines(n_rows: int, *blocks) -> bytes:
    """n_rows CSV lines from blocks of fixed-width cells, each a whole
    number of cells per row, row-major: each cell followed by a comma, the
    last of a row by an LF, the pad bytes deleted."""
    blocks = [b.reshape(n_rows, -1, _CELL) for b in blocks]
    fields = sum(b.shape[1] for b in blocks)
    lines = np.empty((n_rows, fields, _CELL + 1), np.uint8)
    np.concatenate(blocks, axis=1, out=lines[..., :-1])
    lines[..., -1] = ord(",")
    lines[:, -1, -1] = ord("\n")
    return lines.tobytes().translate(None, _PAD.encode())


def _write_csv(path, header, n_rows: int, fields: int, cells) -> str:
    """Write the header line (with its LF), then n_rows lines of `fields`
    cells, `cells(rows)` giving the blocks of a slice of at most
    _CHUNK_CELLS cells (at least one row); returns the sha256."""
    step = max(1, _CHUNK_CELLS // fields)

    def chunks():
        yield header
        for i in range(0, n_rows, step):
            rows = slice(i, min(i + step, n_rows))
            yield _csv_lines(rows.stop - i, *cells(rows))

    return write_hashed(path, chunks())


def write_wigner_csv(grid, path) -> str:
    """A `theta,weight_theta,<phi_0>,...,<phi_{n-1}>` header, then one line
    per theta node: theta, its weight and the row's W at every phi node.
    Every number is the exact `%.12e` of `_sci_cells`, so the long
    `theta,phi,weight_theta,W` table rebuilds exactly.  Returns the
    sha256."""
    n_theta, n_phi = grid.values.shape
    heads = _sci_cells(np.c_[grid.theta_nodes, grid.theta_weights]).reshape(
        n_theta, 2, _CELL)
    phis = _csv_lines(1, _sci_cells(grid.phi_nodes))
    return _write_csv(path, b"theta,weight_theta," + phis, n_theta, 2 + n_phi,
                      lambda r: (heads[r], _sci_cells(grid.values[r])))


def write_marginal_csv(dist, indexing: SiteIndexing, path) -> str:
    """One `phi,P,site_index,site_prob` line per phi node, the site fields
    blank off the site centers; returns the sha256.  Site n's center
    2 pi n/L is node j = n_phi (L + 2n)/(2L) mod n_phi of the nodes
    -pi + 2 pi j/n_phi exactly when 2L divides n_phi (L + 2n)."""
    density = dist.density              # a PhiDistribution sums it anew
    n_phi, sites = len(dist.phi_nodes), indexing.sites
    node, off = np.divmod(n_phi * (sites + 2 * dist.site_numbers), 2 * sites)
    node %= n_phi
    # the centered sites by node, ascending (only n = L/2 wraps, to node 0)
    order = np.flatnonzero(off == 0)[np.argsort(node[off == 0])]
    node = node[order]
    site_cells = np.stack((_python_cells(dist.site_numbers[order], "%d"),
                           _sci_cells(dist.site_probabilities[order])), axis=1)

    def cells(rows):
        lo, hi = np.searchsorted(node, (rows.start, rows.stop))
        fields = np.zeros((rows.stop - rows.start, 2, _CELL), np.uint8)
        fields[node[lo:hi] - rows.start] = site_cells[lo:hi]  # blank: _PAD
        return _sci_cells(np.c_[dist.phi_nodes[rows], density[rows]]), fields

    return _write_csv(path, "phi,P,site_index,site_prob\n",
                      len(dist.phi_nodes), 4, cells)


def write_sigma_csv(table, path) -> str:
    """One `k,sigma_coherent,sigma_ideal` line per row of the (steps, 3)
    table; returns the sha256."""
    table = np.asarray(table, float)    # %d prints each k < 2^53 exactly
    return _write_csv(path, "k,sigma_coherent,sigma_ideal\n", len(table), 3,
                      lambda part: (_python_cells(table[part, 0], "%d"),
                                    _sci_cells(table[part, 1:])))


def write_sites_csv(probabilities, indexing: SiteIndexing, path,
                    header="k,site_index,phi,site_prob") -> str:
    """One line per site of every step k, from the (steps, sites) array of
    probabilities; returns the sha256."""
    flat = np.reshape(probabilities, -1)
    site_cells = np.stack((_python_cells(indexing.site_numbers, "%d"),
                           _sci_cells(indexing.site_numbers
                                      * indexing.delta_phi)), axis=1)

    def cells(rows):
        step, site = divmod(np.arange(rows.start, rows.stop), indexing.sites)
        # the k cells of the chunk's steps only, each formatted once
        step_cells = _python_cells(np.arange(step[0], step[-1] + 1), "%d")
        return (step_cells[step - step[0]], site_cells[site],
                _sci_cells(flat[rows]))

    return _write_csv(path, header + "\n", len(flat), 4, cells)


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

def _residuals(totals: np.ndarray, bound: float, what: str) -> np.ndarray:
    """|total - 1| per step; NumericalInvariantError names the first step
    whose total misses 1 by more than bound, or is NaN."""
    residuals = np.abs(totals - 1.0)
    bad = np.flatnonzero(~(residuals <= bound))
    if bad.size:
        raise NumericalInvariantError(
            f"step {bad[0]}: {what} {float(totals[bad[0]])!r}, not 1")
    return residuals


def run_experiment(config: RunConfig) -> dict:
    """Evolve the walk and write every requested artifact.

    Deterministic: identical configs produce byte-identical CSV/SVG files
    and identical checksums in the manifest.  Returns the manifest that is
    written to manifest.json.
    """
    start = time.monotonic()
    out = config.out
    out.mkdir(parents=True, exist_ok=True)

    indexing = SiteIndexing(config.sites, config.theta0)
    if config.outputs & {"ideal", "sigma"}:
        ideal = ideal_walk(config.sites, config.steps,
                           coin_unitary(config.pulse()))
        if "sigma" in config.outputs:   # ideal_sigma's own bound
            _residuals(ideal.sum(axis=1), 1e-9,
                       "the ideal walk's site probabilities sum to")

    written: dict[str, str] = {}        # file name -> sha256
    residuals: list[float] = []

    if config.outputs & KERNEL_OUTPUTS:
        walk = evolve(initial_state(indexing, SpinQuantum(config.spins)),
                      config.pulse(),
                      WalkSchedule.site_aligned(indexing, config.steps))
        dist = marginal_phi(walk, indexing, config.grid_phi)
        residuals = _residuals(dist.total, 1e-4,
                               "azimuthal marginal integrates to").tolist()

    for k in range(config.steps + 1):       # the per-step files
        grid = None
        if "wigner" in config.outputs:
            grid = wigner_grid(walk[k], (config.grid_theta, config.grid_phi))
            grid_residual = abs(grid.normalization() - 1.0)
            if not grid_residual <= 1e-4:
                raise NumericalInvariantError(
                    f"step {k}: Wigner normalization off by "
                    f"{grid_residual:.2e} at resolution "
                    f"({config.grid_theta}, {config.grid_phi})")
            residuals[k] = max(residuals[k], grid_residual)
        try:
            if grid is not None:
                p = out / f"wigner_k{k}.csv"
                written[p.name] = write_wigner_csv(grid, p)
                if config.svg:
                    p = out / f"wigner_k{k}.svg"
                    written[p.name] = render_heatmap_svg(grid, p, indexing)
            if "marginal" in config.outputs:
                p = out / f"marginal_k{k}.csv"
                written[p.name] = write_marginal_csv(dist[k], indexing, p)
        except OSError as exc:
            raise OSError(f"step {k}: failed writing outputs: {exc}") from exc

    try:
        if "sites" in config.outputs:
            written["sites.csv"] = write_sites_csv(
                dist.site_probabilities, indexing, out / "sites.csv")
        if "sigma" in config.outputs:
            written["sigma.csv"] = write_sigma_csv(
                np.c_[np.arange(config.steps + 1), sigma_from_marginal(dist),
                      ideal_sigma(ideal, indexing)], out / "sigma.csv")
        if "ideal" in config.outputs:
            written["ideal.csv"] = write_sites_csv(
                ideal, indexing, out / "ideal.csv",
                header="k,site_index,phi,P")

        manifest = {
            "config": config.as_dict(),
            "version": __version__,
            "duration_seconds": round(time.monotonic() - start, 3),
            "normalization_residuals": residuals,
            "files": written,
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n",
            newline="\n")
    except OSError as exc:
        raise OSError(f"failed writing outputs: {exc}") from exc
    return manifest


def _print_warning(message, *_args, **_kwargs):
    print(f"blochwalk: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    # warnings print as one line while main runs; filters stay as they are
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            config = parse_config(argv)
        except ConfigError as exc:
            print(f"blochwalk: error: {exc}", file=sys.stderr)
            return 2
        try:
            manifest = run_experiment(config)
        except NumericalInvariantError as exc:
            print(f"blochwalk: numerical invariant violated: {exc}",
                  file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"blochwalk: I/O error: {exc}", file=sys.stderr)
            return 4
    print(f"wrote {len(manifest['files'])} files to {config.out} "
          f"in {manifest['duration_seconds']}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
