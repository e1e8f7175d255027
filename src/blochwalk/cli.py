"""Command-line front end: parse a run configuration, estimate its memory,
execute the walk and have `render` write its CSV / JSON / SVG artifacts.

Exit codes: 0 success, 2 configuration error, 3 numerical-invariant
violation, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .coherent import SiteIndexing
from .render import (emit_bytes, render_heatmap_svg, write_manifest,
                     write_marginal_csv, write_sigma_csv, write_sites_csv,
                     write_wigner_csv)
from .su2 import SpinQuantum
from .walk import (CoinPulse, WalkSchedule, _unit_totals, coin_unitary,
                   evolve, evolve_bytes, ideal_sigma, ideal_walk,
                   ideal_walk_bytes, initial_state)
# unused here, but perfbench/tracer.py binds blochwalk.cli.kernel_weights
from .wigner import (NumericalInvariantError, grid_bytes, kernel_weights,
                     marginal_bytes, marginal_phi, sigma_from_marginal,
                     wigner_grid)

__all__ = ["RunConfig", "ConfigError", "parse_config", "run_experiment",
           "main"]

ALL_OUTPUTS = ("wigner", "marginal", "sites", "sigma", "ideal")
# outputs that need the walker's exact azimuthal marginal; only `wigner`
# builds grids
KERNEL_OUTPUTS = frozenset({"wigner", "marginal", "sites", "sigma"})
# a run whose estimated working set exceeds this is refused up front
MAX_RUN_BYTES = 2 * 1024 ** 3
# what a run holds resident that no layer's arrays account for: the memory
# numpy, its FFT and the BLAS take on first use, which tracemalloc does not
# see (a ru_maxrss rise of about 2.9 MB over a bare import on a steps-0,
# N = 1 run, whose arrays hold 0.05 MB), rounded up
RESIDENT_FLOOR = 4 * 1024 ** 2
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
            raise argparse.ArgumentTypeError(
                f"custom: malformed number in {tokens[1:]!r}") from exc
        # |h|^2 as coin_unitary forms it: NaN, inf and overflow all fail
        if not math.isfinite(hx * hx + hy * hy + hz * hz):
            raise argparse.ArgumentTypeError(
                f"custom: |h|^2 is not finite for {tokens[1:]!r}")
        return ("custom", hx, hy, hz)
    raise argparse.ArgumentTypeError(
        f"expected 'hadamard' or 'custom hx hy hz', got {tokens!r}")


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
    p.add_argument("--coin", metavar="SPEC", type=_parse_coin,
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
    """Rough peak resident memory of the run: RESIDENT_FLOOR plus what each
    layer charges for what it builds, though not all of it is held at once."""
    outputs, steps, phi = config.outputs, config.steps, config.grid_phi
    wigner = "wigner" in outputs
    # the steps whose residuals and files the manifest lists
    listed = bool(outputs & KERNEL_OUTPUTS) * (steps + 1)
    files = ("marginal" in outputs) + wigner * (1 + config.svg)
    total = RESIDENT_FLOOR + emit_bytes(wigner * phi, wigner and config.svg,
                                        listed * files, listed)
    if outputs & {"ideal", "sigma"}:
        total += ideal_walk_bytes(config.sites, steps)
    if listed:
        total += evolve_bytes(config.spins, steps) + marginal_bytes(
            config.spins, steps, phi, config.sites, "sites" in outputs)
    if wigner:
        total += grid_bytes(config.spins, config.grid_theta, phi)
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


def run_experiment(config: RunConfig) -> dict:
    """Evolve the walk and write every requested artifact.

    Deterministic: identical configs produce byte-identical CSV/SVG files
    and identical checksums in the manifest at a fixed BLAS thread count
    (`OPENBLAS_NUM_THREADS`); another count splits the matrix products'
    sums differently and can change the last digits.  Returns the manifest
    that is written to manifest.json.
    """
    start = time.monotonic()
    out = config.out
    out.mkdir(parents=True, exist_ok=True)

    indexing = SiteIndexing(config.sites, config.theta0)
    if config.outputs & {"ideal", "sigma"}:
        ideal = ideal_walk(config.sites, config.steps,
                           coin_unitary(config.pulse()),
                           seam=(-1) ** config.spins)
        if "sigma" in config.outputs:   # ideal_sigma's own bound
            _unit_totals(ideal.sum(axis=1), 1e-9, "the ideal walk's site "
                         "probabilities sum to", NumericalInvariantError)

    written: dict[str, str] = {}        # file name -> sha256
    residuals: list[float] = []

    if config.outputs & KERNEL_OUTPUTS:
        walk = evolve(initial_state(indexing, SpinQuantum(config.spins)),
                      config.pulse(),
                      WalkSchedule.site_aligned(indexing, config.steps))
        dist = marginal_phi(walk, indexing, config.grid_phi)
        residuals = _unit_totals(dist.total, 1e-4,
                                 "azimuthal marginal integrates to",
                                 NumericalInvariantError).tolist()

    for k in range(config.steps + 1):       # the per-step files
        grid = None
        if "wigner" in config.outputs:
            resolution = (config.grid_theta, config.grid_phi)
            grid = wigner_grid(walk[k], resolution)
            residuals[k] = max(residuals[k], float(_unit_totals(
                grid.normalization(), 1e-4,
                f"Wigner normalization at resolution {resolution} is",
                NumericalInvariantError, first=k)))
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
        write_manifest(manifest, out / "manifest.json")
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
