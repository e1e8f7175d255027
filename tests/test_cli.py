"""Configuration parsing, artifact emission and exit-code behavior."""

import csv
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
# loaded on first use; imported here so that the memory-guard test's
# tracemalloc peaks do not count the module objects
import numpy.fft  # noqa: F401
import pytest

import blochwalk.cli as cli
import blochwalk.su2 as su2
import blochwalk.walk as walk
import blochwalk.wigner as wigner
from blochwalk import (CoinPulse, SiteIndexing, SpinQuantum, WalkSchedule,
                       evolve, initial_state)
from blochwalk.cli import (ALL_OUTPUTS, ConfigError, main, parse_config,
                           run_experiment)
from oracles import _color


def _parse(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_config(argv)


def _tiny_args(out_dir, extra=()):
    return ["--sites", "6", "--spins", "10", "--steps", "1",
            "--out", str(out_dir), *extra]


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def test_default_configuration():
    cfg = parse_config([])
    assert (cfg.sites, cfg.spins, cfg.steps) == (6, 50, 2)
    assert cfg.coin == ("hadamard",)
    assert cfg.theta0 == pytest.approx(math.pi / 2.0)
    assert (cfg.grid_theta, cfg.grid_phi) == (52, 54)
    assert cfg.outputs == frozenset(ALL_OUTPUTS)
    assert cfg.out == Path("out")
    assert cfg.svg is True


def test_flag_overrides():
    cfg = _parse(["--sites", "40", "--spins", "200", "--steps", "9",
                  "--grid-phi", "320", "--outputs", "sigma,ideal",
                  "--no-svg", "--out", "run1"])
    assert (cfg.sites, cfg.spins, cfg.steps) == (40, 200, 9)
    assert cfg.grid_theta == 202            # derived default 2J + 2
    assert cfg.grid_phi == 320
    assert cfg.outputs == frozenset({"sigma", "ideal"})
    assert cfg.svg is False


def test_custom_coin_parsing():
    a = math.pi / math.sqrt(2.0)
    cfg = parse_config(["--coin", "custom", str(a), "0", str(a)])
    assert cfg.coin[0] == "custom"
    assert cfg.pulse().h == pytest.approx((a, 0.0, a))


@pytest.mark.parametrize("hz", ["-1e-12", "-1E5", "-inf"])
def test_negative_coin_components_in_any_notation(hz, tmp_path):
    # argparse takes "-1e-12" for an option; the coin parser takes it as
    # hz, on the command line and in a config file, and "-inf" reaches the
    # non-finite refusal
    cfile = tmp_path / "run.cfg"
    cfile.write_text(f"coin = custom 0.3 1.1 {hz}\n")
    for argv in (["--coin", "custom", "0.3", "1.1", hz, "--steps", "1"],
                 ["--coi", "custom", "0.3", "1.1", hz, "--steps", "1"],
                 ["--steps", "1", "--coin", f"custom 0.3 1.1 {hz}"],
                 ["--config", str(cfile), "--steps", "1"]):
        if hz == "-inf":
            with pytest.raises(ConfigError, match=r"\|h\|\^2 is not finite"):
                parse_config(argv)
        else:
            cfg = parse_config(argv)
            assert cfg.coin == ("custom", 0.3, 1.1, float(hz))
            assert cfg.steps == 1


def test_config_file_and_precedence(tmp_path):
    cfile = tmp_path / "run.cfg"
    cfile.write_text(
        "# comment line\n"
        "sites = 12\n"
        "spins = 20\n"
        "steps = 3\n"
        "outputs = sigma, ideal\n"
        "svg = false\n")
    cfg = _parse(["--config", str(cfile)])
    assert (cfg.sites, cfg.spins, cfg.steps) == (12, 20, 3)
    assert cfg.outputs == frozenset({"sigma", "ideal"})
    assert cfg.svg is False
    # explicit flags beat file values
    cfg = _parse(["--config", str(cfile), "--spins", "30", "--svg"])
    assert cfg.spins == 30
    assert cfg.sites == 12
    assert cfg.svg is True


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(["--config", str(bad)])
    bad.write_text("spins = many\n")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(["--config", str(bad)])
    bad.write_text("just some text\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(["--config", str(bad)])
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(["--config", str(tmp_path / "missing.cfg")])


@pytest.mark.parametrize("content", [
    b"sites = 6\n\xff\xfe = 3\n",
    b"out = o\x00x\n",
], ids=["not-utf-8", "nul-in-out"])
def test_unusable_config_file_exits_2(content, tmp_path, monkeypatch, capsys):
    # refused with one error line before any estimate, run or directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_bytes(content)
    assert main(["--config", "run.cfg"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("blochwalk: error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize("argv", [
    ["--sites", "1"],
    ["--spins", "0"],
    ["--steps", "-1"],
    ["--theta0", "0"],
    ["--theta0", "3.5"],
    ["--grid-phi", "3"],
    ["--outputs", "wigner,plasma"],
    ["--coin", "bogus"],
    ["--coin", "custom", "1", "x", "0"],
    ["--coin", "custom", "nan", "0", "0"],
    ["--coin", "custom", "inf", "0", "0"],
    ["--coin", "custom", "1e308", "1e308", "0"],
    ["--coin", "custom", "1e200", "0", "0"],
    ["--spins", "many"],
    ["--no-such-flag"],
    ["--outputs", ","],
    ["--outputs", ""],
])
def test_bad_arguments_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--sites", "1000000000", "--outputs", "ideal"],
    ["--steps", "100000000", "--outputs", "ideal"],
    ["--spins", "1100"],
    ["--spins", "100", "--grid-theta", "1000000"],
    # at the most theta nodes a grid takes, its FFT buffer and W alone
    # are 3.6 GB
    ["--sites", "2", "--spins", "1", "--grid-theta", "11216",
     "--grid-phi", "10000", "--outputs", "wigner", "--no-svg"],
])
def test_oversized_runs_exit_2(argv, tmp_path, capsys):
    # refused from the size estimate, before anything is allocated or any
    # warning about the run is given; parsed first, so that a shrunk
    # estimate fails here instead of running the whole job
    with pytest.raises(ConfigError, match="GiB"):
        _parse(argv)
    assert main([*argv, "--out", str(tmp_path / "big")]) == 2
    assert "GiB" in capsys.readouterr().err
    assert not (tmp_path / "big").exists()


def test_size_limit_admits_the_ballistic_run():
    _parse(["--sites", "40", "--spins", "200", "--steps", "9"])


# the largest N each kind of run admits at the default sites, steps and
# resolution: the grid's kernel stack of ceil(n_theta/2)
# (floor((N+1)/2) + 1) (N+1) doubles sets the first, the build of the
# theta kernel the second, with `cli.RESIDENT_FLOOR` (4 MiB) below both
WIGNER_LIMIT, STATISTICS_LIMIT = 1010, 8145
# the most theta nodes a grid takes (`cli.MAX_GRID_THETA`), a bound on the
# theta rule's O(n_theta^2) time, not on memory
GRID_THETA_LIMIT = 11216


@pytest.mark.parametrize("outputs,limit", [
    ("wigner", WIGNER_LIMIT),
    ("marginal,sites,sigma,ideal", STATISTICS_LIMIT),
], ids=["wigner", "statistics"])
def test_admission_limit_is_sharp(outputs, limit, tmp_path, capsys):
    # reached through the size estimate alone: N = limit is admitted, and
    # N + 1 is refused with one error line before anything is written
    _parse(["--spins", str(limit), "--outputs", outputs])
    with pytest.raises(ConfigError, match="GiB"):
        _parse(["--spins", str(limit + 1), "--outputs", outputs])
    out = tmp_path / "big"
    assert main(["--spins", str(limit + 1), "--outputs", outputs,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("blochwalk: error: ")
    assert captured.err.count("\n") == 1 and "GiB" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_grid_theta_limit_is_sharp():
    argv = ["--sites", "2", "--spins", "1", "--grid-theta"]
    _parse([*argv, str(GRID_THETA_LIMIT)])
    for n_theta in (GRID_THETA_LIMIT + 1, 20000):
        with pytest.raises(cli.ConfigError, match="--grid-theta must be <="):
            _parse([*argv, str(n_theta)])


def test_size_limit_charges_the_d_stack_to_wigner_output_only(tmp_path,
                                                             capsys):
    # the exact marginal needs O(N^2) memory, so statistics above the
    # Wigner limit are admitted; a Wigner grid at that size is refused,
    # from the estimate alone
    _parse(["--sites", "40", "--spins", "800", "--steps", "9",
            "--outputs", "sites,sigma,ideal", "--no-svg"])
    _parse(["--spins", "1000", "--outputs", "marginal"])
    with pytest.raises(ConfigError, match="GiB"):
        _parse(["--spins", "1100", "--outputs", "wigner"])
    out = tmp_path / "big"
    assert main(["--spins", "1100", "--outputs", "wigner",
                 "--out", str(out)]) == 2
    assert "GiB" in capsys.readouterr().err
    assert not out.exists()


def _folded_bytes(monkeypatch, build):
    """The largest buffer that `build()` folds into whole laps of rows, the
    nbytes `wigner._periodic_sum` is handed."""
    sizes, periodic_sum = [0], wigner._periodic_sum

    def spy(folded, period):
        sizes.append(folded.nbytes)
        return periodic_sum(folded, period)

    with monkeypatch.context() as m, warnings.catch_warnings():
        m.setattr(wigner, "_periodic_sum", spy)
        warnings.simplefilter("ignore")          # n_phi <= 2J
        build()
    return max(sizes)


@pytest.mark.parametrize("spins,grid_theta", [
    (1, 2), (2, 5), (10, 13), (11, 12), (200, 202), (201, 203)])
def test_estimate_charges_the_stack_as_built(spins, grid_theta,
                                             monkeypatch):
    """Each shaped term of the estimate is the nbytes of what its builder
    allocates: the estimate falls by exactly that when the shape the term
    shares with its builder reads 0, for the kernel stack, for the buffers
    of n_phi rows (a grid's and one step's P(phi)) and for those of L rows
    (every step's site bins in chunks, and one step's)."""
    sites, n_phi = 3, max(4, spins // 3)       # several laps of each
    config = _parse(["--spins", str(spins), "--grid-theta", str(grid_theta),
                     "--grid-phi", str(n_phi), "--sites", str(sites),
                     "--outputs", "wigner,marginal,sites"])
    idx = SiteIndexing(sites)
    states = evolve(initial_state(idx, SpinQuantum(spins)),
                    CoinPulse.hadamard(),
                    WalkSchedule.site_aligned(idx, config.steps))
    dist = wigner.marginal_phi(states, idx, n_phi)
    stack = wigner._theta_frame_stack(spins, grid_theta).nbytes
    built = {n_phi: _folded_bytes(monkeypatch, lambda: wigner.wigner_grid(
                 states[0], (grid_theta, n_phi)))
             + _folded_bytes(monkeypatch, lambda: dist[0].density),
             sites: _folded_bytes(monkeypatch, lambda: dist.site_probabilities)
             + _folded_bytes(monkeypatch, lambda: dist[0].site_probabilities)}
    estimate, fft_rows = cli._estimated_bytes(config), wigner._fft_rows
    with monkeypatch.context() as m:
        m.setattr(wigner, "_stack_shape", lambda two_j, n_theta: (0,))
        assert estimate - cli._estimated_bytes(config) == stack
    for period, nbytes in built.items():
        with monkeypatch.context() as m:
            m.setattr(wigner, "_fft_rows", lambda n, p, period=period:
                      0 if p == period else fft_rows(n, p))
            assert estimate - cli._estimated_bytes(config) == nbytes


def test_estimate_bounds_an_svg_with_a_rect_per_cell(tmp_path):
    # the worst case for the SVG block: a new colour at every cell of rows
    # wider than a block, rendered within the estimate of a run at that
    # resolution (whose grid itself is already allocated here)
    argv = ["--sites", "2", "--spins", "1", "--grid-theta", "3",
            "--grid-phi", "20000", "--outputs", "wigner"]
    idx = SiteIndexing(2)
    grid = wigner.wigner_grid(initial_state(idx, SpinQuantum(1)), (3, 20000))
    grid = dataclasses.replace(
        grid, values=np.resize(np.linspace(-1.0, 1.0, 511), (3, 20000)))
    path = tmp_path / "fine.svg"
    tracemalloc.start()
    try:
        cli.render_heatmap_svg(grid, path, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes().count(b"<rect") > 0.9 * grid.values.size
    assert peak <= cli._estimated_bytes(_parse(argv))


def test_large_spin_statistics_are_admitted_up_to_the_memory_limit(
        tmp_path, capsys):
    # the kernel weights' recursion has no spin limit of its own; only the
    # size estimate refuses a statistics run, before anything is allocated.
    # The kernel build, 32 (N+1)^2 + 2000 (N+1) bytes, sets the limit.
    # (`test_admission_limit_is_sharp` pins the limit itself)
    _parse(["--sites", "40", "--spins", "1600", "--outputs", "sites"])
    with pytest.raises(ConfigError, match="GiB"):
        _parse(["--spins", "9000", "--outputs", "sites"])
    out = tmp_path / "big"
    assert main(["--spins", "9000", "--outputs", "sites",
                 "--out", str(out)]) == 2
    assert "GiB" in capsys.readouterr().err
    assert not out.exists()


def test_readme_states_the_admission_limits():
    # README's limits are the sharp ones of `test_admission_limit_is_sharp`
    # and `test_grid_theta_limit_is_sharp`
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = " ".join(readme.split())
    limits = {r"the N <= (\d+) limit at the default resolution":
                  WIGNER_LIMIT,
              r"Without `wigner` output, the estimate admits N <= (\d+)":
                  STATISTICS_LIMIT,
              r"admits at most ([\d,]+) theta nodes":
                  GRID_THETA_LIMIT}
    for pattern, limit in limits.items():
        assert int(re.search(pattern, text).group(1).replace(",", "")) \
            == limit


# Small runs, each estimated under 100 MB: the long runs, the wide rings,
# the wide marginal, the wide grid, the 2000-node theta rule, N = 800 and
# the two `sites` runs of 400 and 1000 steps stress the per-step,
# per-site-row, FFT, per-cell, grid-buffer, kernel-build and site-bin
# chunk terms; the 500-step run's
# statistics would exceed its estimate if P(phi) were held for every step,
# and the 5000-step run's if the walk's amplitudes were held twice.
GUARDED_RUNS = [
    [],
    ["--sites", "2", "--spins", "1", "--steps", "0"],
    ["--sites", "2", "--spins", "1", "--grid-phi", "100000",
     "--outputs", "marginal"],
    ["--sites", "2", "--spins", "4", "--steps", "20000", "--outputs", "sigma"],
    ["--sites", "2", "--spins", "4", "--steps", "20000", "--outputs", "ideal"],
    ["--sites", "4000", "--spins", "1", "--steps", "999", "--outputs", "sigma"],
    ["--sites", "2", "--spins", "1", "--grid-phi", "5000", "--grid-theta",
     "160", "--outputs", "wigner"],
    ["--sites", "2", "--spins", "1", "--grid-theta", "2000",
     "--outputs", "wigner", "--no-svg"],
    ["--sites", "7", "--spins", "31", "--steps", "3", "--grid-phi", "50"],
    ["--sites", "12", "--spins", "30", "--steps", "5"],
    ["--sites", "12", "--spins", "30", "--steps", "5", "--coin", "custom",
     "0.3", "-0.7", "1.1", "--theta0", "1"],
    ["--sites", "40", "--spins", "200", "--steps", "9"],
    ["--sites", "40", "--spins", "200", "--steps", "9",
     "--outputs", "sites,sigma,ideal", "--no-svg"],
    ["--sites", "40", "--spins", "800", "--steps", "9",
     "--outputs", "sites,sigma,ideal", "--no-svg"],
    ["--sites", "200", "--spins", "20", "--steps", "99",
     "--outputs", "sites,ideal,sigma"],
    ["--sites", "4000", "--spins", "1", "--steps", "99",
     "--outputs", "sites,ideal"],
    ["--sites", "2", "--spins", "4", "--steps", "500", "--grid-phi", "20000",
     "--outputs", "sigma"],
    ["--sites", "2", "--spins", "100", "--steps", "5000", "--outputs", "sigma"],
    ["--sites", "150", "--spins", "4", "--steps", "400", "--outputs", "sites",
     "--no-svg"],
    ["--sites", "600", "--spins", "4", "--steps", "1000",
     "--outputs", "sites,sigma,ideal", "--no-svg"],
]


def _assert_fields_finite(out_dir):
    """Every field below the header of every CSV is a finite number; only
    the site fields of a marginal CSV's off-center nodes are blank."""
    for path in sorted(out_dir.glob("*.csv")):
        lines = path.read_text().splitlines()[1:]
        if path.name.startswith("marginal_"):
            lines = [line.removesuffix(",,") for line in lines]
        values = np.array(",".join(lines).split(","), float)
        assert np.isfinite(values).all(), path.name


def _run_id(argv):
    return "_".join(a.removeprefix("--") for a in argv) or "default"


@pytest.mark.parametrize("argv", GUARDED_RUNS, ids=_run_id)
def test_memory_estimate_bounds_the_measured_peak(argv, tmp_path,
                                                   cleared_caches):
    argv = [*argv, "--out", str(tmp_path)]
    estimate = cli._estimated_bytes(_parse(argv))
    assert estimate < 100 * 10 ** 6
    assert {wigner.kernel_weights, wigner._theta_kernel,
            wigner._theta_frame_stack, wigner._gauss_legendre,
            su2._jy_eigensystem} <= set(cleared_caches)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= estimate
    _assert_fields_finite(tmp_path)


# fresh-process runs whose max RSS rise the estimate bounds, from below
# and, where the rise reaches 4 MB, from above: the default run, the
# smallest run (almost all first-use memory), a custom-coin-sized ring, the
# ballistic run, the long walks, the wide marginal, N = 800 statistics, the
# wide grid and the wide rings
RESIDENT_RUNS = [
    [],
    ["--sites", "2", "--spins", "1", "--steps", "0"],
    ["--sites", "12", "--spins", "30", "--steps", "5"],
    ["--sites", "40", "--spins", "200", "--steps", "9"],
    ["--sites", "2", "--spins", "100", "--steps", "5000", "--outputs", "sigma"],
    ["--sites", "2", "--spins", "4", "--steps", "20000", "--outputs", "sigma"],
    ["--sites", "2", "--spins", "1", "--grid-phi", "100000",
     "--outputs", "marginal"],
    ["--sites", "40", "--spins", "800", "--steps", "9",
     "--outputs", "sites,sigma,ideal", "--no-svg"],
    ["--sites", "2", "--spins", "1", "--grid-phi", "5000", "--grid-theta",
     "160", "--outputs", "wigner"],
    ["--sites", "4000", "--spins", "1", "--steps", "999", "--outputs", "sigma"],
    ["--sites", "4000", "--spins", "1", "--steps", "99",
     "--outputs", "sites,ideal"],
    ["--sites", "600", "--spins", "4", "--steps", "1000",
     "--outputs", "sites,sigma,ideal", "--no-svg"],
]

# prints main()'s exit code and the rise of the peak RSS over the bare
# import, in bytes.  The peak is the process's VmHWM, which starts afresh at
# exec: its ru_maxrss also counts the peak of the process that started it,
# as subprocess does with vfork.
_RESIDENT_RISE = """\
import sys, warnings
import blochwalk.cli

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))

before = peak()
warnings.simplefilter("ignore")
code = blochwalk.cli.main(sys.argv[1:])
print(code, 1024 * (peak() - before))
"""


@pytest.mark.parametrize("argv", RESIDENT_RUNS, ids=_run_id)
def test_memory_estimate_bounds_the_resident_rise(argv, tmp_path):
    """In a fresh process, the run's peak RSS rises over a bare
    `import blochwalk.cli` by no more than the estimate: the memory that
    numpy, its FFT and the BLAS take on first use, which tracemalloc does
    not see, is `cli.RESIDENT_FLOOR`'s to cover."""
    if not Path("/proc/self/status").is_file():
        pytest.skip("reads the peak RSS from Linux's /proc/self/status")
    argv = [*argv, "--out", str(tmp_path)]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RESIDENT_RISE, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    code, rise = map(int, proc.stdout.split()[-2:])
    assert code == 0, proc.stderr
    estimate = cli._estimated_bytes(_parse(argv))
    assert rise <= estimate
    # and from above, where the arrays outweigh the first-use memory
    if rise >= 4 * 10 ** 6:
        assert estimate - cli.RESIDENT_FLOOR <= 1.5 * rise


@pytest.mark.parametrize("sites,spins", [(3, 50), (5, 50), (7, 60), (9, 50)])
def test_default_grid_phi_puts_a_node_on_every_site_center(sites, spins,
                                                           tmp_path):
    # an odd ring's default n_phi is an even multiple of L: an odd one left
    # every site field of every marginal CSV blank
    assert main(["--sites", str(sites), "--spins", str(spins), "--steps", "1",
                 "--outputs", "marginal", "--out", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("marginal_k*.csv"))
    assert len(paths) == 2
    for path in paths:
        lines = path.read_text().splitlines()[1:]
        assert sum(not line.endswith(",,") for line in lines) == sites


# custom coin components: zero, tiny (1e-300 squares to zero), huge, negative
# in scientific and plain notation, and multiples of pi
_SWEEP_COMPONENTS = (0.0, 1e-300, -1e-300, 1e150, -1e150, -1e-12, 1e-12,
                     math.pi, -2.0 * math.pi, 0.3, -0.7)


def _log_uniform(rng, low, high):
    """An integer in [low, high] whose logarithm is about uniform, so most
    draws are small and the largest still occur."""
    return int(low * ((high + 1) / low) ** rng.random())


def _sweep_argv(rng):
    """A small random configuration, and whether it names its own grid."""
    sites = _log_uniform(rng, 2, 61)
    argv = ["--sites", str(sites), "--spins", str(_log_uniform(rng, 1, 120)),
            "--steps", str(_log_uniform(rng, 1, 31) - 1),
            "--outputs", ",".join(rng.sample(ALL_OUTPUTS, rng.randint(1, 5)))]
    if rng.random() < 0.5:
        argv += ["--coin", "custom",
                 *(repr(rng.choice(_SWEEP_COMPONENTS)
                        if rng.random() < 0.7 else rng.uniform(-5.0, 5.0))
                   for _ in range(3))]
    if rng.random() < 0.5:
        argv += ["--theta0", repr(rng.choice(
            [1e-12, math.pi - 1e-12, rng.uniform(1e-12, math.pi - 1e-12)]))]
    named_grid = False
    if rng.random() < 0.2:
        argv += ["--grid-theta", str(rng.randint(2, 130))]
        named_grid = True
    if rng.random() < 0.2:
        argv += ["--grid-phi", str(rng.randint(sites - 1, 9 * sites))]
        named_grid = True
    if rng.random() < 0.5:
        argv.append("--no-svg")
    return argv, named_grid


def test_seeded_sweep_of_small_configs(tmp_path, cleared_caches):
    """300 random small configs through `main()`: each exits 0, 2, 3 or 4
    with no exception; a run that exits 0 lists every file with its sha256,
    writes only finite fields and, at the default resolution, a site field
    for every site in each marginal CSV; only a config that names its own
    grid exits 3; and on every tenth admitted config the size estimate
    bounds the `tracemalloc` peak.  No config is dropped or re-drawn."""
    rng = random.Random(2027)
    admitted = 0
    for i in range(300):
        argv, named_grid = _sweep_argv(rng)
        out = tmp_path / "run"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    estimate = cli._estimated_bytes(parse_config(argv))
                except ConfigError:
                    estimate = None
                traced = estimate is not None and admitted % 10 == 9
                admitted += estimate is not None
                if traced:
                    for cache in cleared_caches:
                        cache.cache_clear()
                    tracemalloc.start()
                try:
                    code = main([*argv, "--out", str(out)])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert code in (0, 2, 3, 4)
            assert (code == 2) == (estimate is None)
            assert code != 3 or named_grid
            if traced:
                assert peak <= estimate
            if code == 0:
                manifest = json.loads((out / "manifest.json").read_text())
                assert set(manifest["files"]) \
                    == {p.name for p in out.iterdir()} - {"manifest.json"}
                for name, digest in manifest["files"].items():
                    assert hashlib.sha256((out / name).read_bytes()) \
                        .hexdigest() == digest, name
                _assert_fields_finite(out)
                sites = int(argv[1])
                for path in out.glob("marginal_k*.csv"):
                    lines = path.read_text().splitlines()[1:]
                    assert (sum(not line.endswith(",,") for line in lines)
                            == sites or "--grid-phi" in argv), path.name
        except Exception as exc:
            raise AssertionError(f"config {i}: blochwalk "
                                 f"{' '.join(argv)}") from exc
        shutil.rmtree(out, ignore_errors=True)
    assert admitted > 200


def test_wraparound_warning():
    with pytest.warns(UserWarning, match="wrap-around"):
        parse_config(["--sites", "6", "--steps", "3", "--spins", "10"])


def test_no_wraparound_warning_without_sigma_output():
    # the warning concerns the reported standard deviation, so a run that
    # writes none parses without it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_config(["--sites", "6", "--steps", "3",
                      "--outputs", "sites,wigner"])


@pytest.mark.parametrize("extra, code, message", [
    (["--steps", "3"], 0, "wrap-around"),
    (["--grid-phi", "7"], 3, "normalization off"),
])
def test_cli_prints_warnings_as_one_line(extra, code, message, tmp_path):
    """Run as a program, a warning is one `blochwalk: warning:` line on
    stderr, not Python's file:line header and echoed source line."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "blochwalk", "--sites", "6", "--spins", "10",
         *extra, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("blochwalk: ") for line in lines)
    assert lines[0].startswith("blochwalk: warning: ")
    assert message in lines[0]


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(_tiny_args(out))
    assert code == 0
    return out


def test_run_file_inventory(tiny_run):
    names = sorted(p.name for p in tiny_run.iterdir())
    assert names == [
        "ideal.csv", "manifest.json",
        "marginal_k0.csv", "marginal_k1.csv",
        "sigma.csv", "sites.csv",
        "wigner_k0.csv", "wigner_k0.svg",
        "wigner_k1.csv", "wigner_k1.svg",
    ]


def test_manifest_checksums_and_residuals(tiny_run):
    manifest = json.loads((tiny_run / "manifest.json").read_text())
    assert manifest["version"]
    assert len(manifest["normalization_residuals"]) == 2
    assert max(manifest["normalization_residuals"]) < 1e-6
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256((tiny_run / name).read_bytes()).hexdigest()
        assert actual == digest, name


def test_manifest_digests_are_taken_as_files_are_written(tmp_path,
                                                        monkeypatch):
    def no_read_back(path):
        raise AssertionError(f"{path.name} read back")

    monkeypatch.setattr(Path, "read_bytes", no_read_back)
    out = tmp_path / "run"
    assert main(_tiny_args(out)) == 0
    monkeypatch.undo()
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert set(files) == {p.name for p in out.iterdir()} - {"manifest.json"}
    assert {"wigner_k1.csv", "wigner_k1.svg", "sites.csv"} <= set(files)
    for name, digest in files.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
            == digest, name


def test_wigner_csv_shape(tiny_run):
    lines = (tiny_run / "wigner_k0.csv").read_text().splitlines()
    assert lines[0].startswith("theta,weight_theta,-3.141592653590e+00,")
    assert len(lines) == 1 + 12             # one line per theta node (2J+2)
    assert {len(line.split(",")) for line in lines} == {2 + 48}   # 8L phi


def test_marginal_csv_reintegrates_to_one(tiny_run):
    with open(tiny_run / "marginal_k1.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 48
    density = [float(r["P"]) for r in rows]
    total = sum(density) * (2.0 * math.pi / len(rows))
    assert total == pytest.approx(1.0, abs=1e-6)
    site_mass = sum(float(r["site_prob"]) for r in rows if r["site_prob"])
    assert site_mass == pytest.approx(1.0, abs=1e-6)


def test_sigma_csv_rows(tiny_run):
    lines = (tiny_run / "sigma.csv").read_text().splitlines()
    assert lines[0] == "k,sigma_coherent,sigma_ideal"
    assert len(lines) == 1 + 2              # k = 0, 1
    k0 = lines[1].split(",")
    assert float(k0[2]) == 0.0              # ideal walk starts localized


def test_sites_and_ideal_csv_rows(tiny_run):
    assert len((tiny_run / "sites.csv").read_text().splitlines()) == 1 + 2 * 6
    lines = (tiny_run / "ideal.csv").read_text().splitlines()
    assert lines[0] == "k,site_index,phi,P"
    assert len(lines) == 1 + 2 * 6


def test_ideal_table_is_the_walkers_orthogonal_limit(tmp_path):
    """At N = 601 six site states are orthogonal to the rounding level
    (r = sqrt(N) pi / L = 12.8), so the walker's site bins are the ideal
    table at every step, also past k = L/2 = 3, where an odd N's seam sign
    (-1)^N first changes the ideal walk on an even ring."""
    assert main(["--sites", "6", "--spins", "601", "--steps", "8",
                 "--outputs", "sites,ideal", "--out", str(tmp_path)]) == 0
    sites, ideal = (np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
                    for name in ("sites.csv", "ideal.csv"))
    assert np.array_equal(sites[:, :3], ideal[:, :3])
    for k in range(9):
        rows = sites[:, 0] == k
        assert 0.5 * np.abs(sites[rows, 3] - ideal[rows, 3]).sum() <= 1e-9


def test_svg_heatmap_content(tiny_run):
    """One <rect> per run of equal colour along each theta row, plus the
    background and the frame."""
    text = (tiny_run / "wigner_k1.svg").read_text()
    assert text.startswith("<svg")
    idx, spin = SiteIndexing(6), SpinQuantum(10)
    states = evolve(initial_state(idx, spin), CoinPulse.hadamard(),
                    WalkSchedule.site_aligned(idx, 1))
    values = wigner.wigner_grid(states[1], (12, 48)).values
    vmax = float(np.abs(values).max())
    fills = [[_color(v, vmax) for v in row] for row in values.tolist()]
    runs = sum(1 + sum(a != b for a, b in zip(row, row[1:]))
               for row in fills)
    assert runs < 12 * 48
    assert text.count("<rect") == 2 + runs
    assert "W range" in text


def test_runs_are_byte_identical(tiny_run, tmp_path):
    out2 = tmp_path / "again"
    assert main(_tiny_args(out2)) == 0
    for p in sorted(tiny_run.iterdir()):
        if p.name == "manifest.json":
            a = json.loads(p.read_text())
            b = json.loads((out2 / p.name).read_text())
            assert a["files"] == b["files"]
        else:
            assert p.read_bytes() == (out2 / p.name).read_bytes(), p.name


def test_custom_coin_matches_hadamard_preset(tiny_run, tmp_path):
    a = repr(math.pi / math.sqrt(2.0))
    out2 = tmp_path / "custom"
    code = main(_tiny_args(out2, extra=["--coin", "custom", a, "0", a]))
    assert code == 0
    for name in ("wigner_k1.csv", "marginal_k1.csv", "sigma.csv"):
        assert (tiny_run / name).read_bytes() == (out2 / name).read_bytes()


def test_output_selection_limits_files(tmp_path):
    out = tmp_path / "sel"
    assert main(_tiny_args(out, extra=["--outputs", "sigma"])) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "sigma.csv"]


def test_low_resolution_exits_3(tmp_path, capsys):
    argv = ["--sites", "6", "--spins", "100", "--steps", "0",
            "--grid-phi", "6", "--outputs", "wigner,sigma",
            "--out", str(tmp_path / "bad")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 3
    assert "invariant" in capsys.readouterr().err


def test_unnormalized_marginal_exits_3(tmp_path, capsys, monkeypatch):
    exact = cli.marginal_phi

    def leaky(*args):
        dist = exact(*args)
        return dataclasses.replace(dist, harmonics=0.9 * dist.harmonics)

    monkeypatch.setattr(cli, "marginal_phi", leaky)
    assert main(_tiny_args(tmp_path / "bad", ["--outputs", "sites"])) == 3
    assert "marginal integrates" in capsys.readouterr().err


def test_unnormalized_ideal_walk_exits_3(tmp_path, capsys, monkeypatch):
    # a custom coin's unitary drifts the ideal walk's totals by about 2e-16
    # a step; past ideal_sigma's 1e-9 the run stops before writing a file
    exact = cli.ideal_walk
    monkeypatch.setattr(cli, "ideal_walk", lambda *args, **kwargs:
                        exact(*args, **kwargs) * (1.0 + 2e-9))
    out = tmp_path / "bad"
    assert main(_tiny_args(out, ["--outputs", "sigma"])) == 3
    err = capsys.readouterr().err
    assert err.startswith("blochwalk: numerical invariant violated: step 0: "
                          "the ideal walk's site probabilities sum to ")
    assert err.count("\n") == 1
    assert not any(out.iterdir())
    assert main(_tiny_args(tmp_path / "ideal", ["--outputs", "ideal"])) == 0


def test_coarse_grid_at_a_later_step_exits_3(tmp_path, capsys, monkeypatch):
    # only step 2's grid misses its normalization; the message counts the
    # grid's steps from the run's first
    exact = cli.wigner_grid
    grids = []

    def coarse_at_step_2(state, resolution):
        grids.append(exact(state, resolution))
        grid = grids[-1]
        if len(grids) == 3:
            return dataclasses.replace(grid, values=0.9 * grid.values)
        return grid

    monkeypatch.setattr(cli, "wigner_grid", coarse_at_step_2)
    out = tmp_path / "bad"
    assert main(_tiny_args(out, ["--steps", "3", "--outputs", "wigner"])) == 3
    err = capsys.readouterr().err
    assert err.startswith("blochwalk: numerical invariant violated: step 2: "
                          "Wigner normalization at resolution (12, 48) is ")
    assert err.count("\n") == 1
    assert len(grids) == 3 and not (out / "manifest.json").exists()


def test_statistics_come_from_one_marginal_call(tmp_path, monkeypatch):
    """Every step's site bins and spread come from one marginal call on the
    stacked walk that `evolve` returns, and every grid from a step of that
    stack: no step builds a density matrix or copies its amplitudes."""
    walks, calls, grid_states = [], [], []
    exact_evolve, exact_marginal = cli.evolve, cli.marginal_phi
    exact_grid = cli.wigner_grid

    def recorded(*args):
        walks.append(exact_evolve(*args))
        return walks[-1]

    def counted(*args):
        calls.append(args[0])
        return exact_marginal(*args)

    def gridded(state, resolution):
        grid_states.append(state)
        return exact_grid(state, resolution)

    def no_density_matrix(*args):
        raise AssertionError("reduce_walker called")

    monkeypatch.setattr(cli, "evolve", recorded)
    monkeypatch.setattr(cli, "marginal_phi", counted)
    monkeypatch.setattr(cli, "wigner_grid", gridded)
    monkeypatch.setattr(walk, "reduce_walker", no_density_matrix)
    assert not hasattr(cli, "reduce_walker")
    assert not hasattr(wigner, "reduce_walker")
    out = tmp_path / "stats"
    assert main(_tiny_args(out, ["--sites", "12", "--steps", "4"])) == 0
    [stack] = walks
    assert len(calls) == 1 and calls[0] is stack
    assert stack.up.shape == (5, 11)
    assert len(grid_states) == 5
    for k, state in enumerate(grid_states):
        for branch in ("up", "down"):
            assert np.shares_memory(getattr(state, branch),
                                    getattr(stack, branch))
            assert np.array_equal(getattr(state, branch),
                                  getattr(stack, branch)[k])
    assert len((out / "sigma.csv").read_text().splitlines()) == 1 + 5


def test_ideal_output_evolves_no_walk(tmp_path, monkeypatch):
    # the ideal walk needs no coin-walker state, so its spin count is not
    # charged to the memory estimate either
    _parse(["--spins", "100000", "--steps", "10000", "--outputs", "ideal"])
    with pytest.raises(ConfigError, match="GiB"):
        _parse(["--spins", "100000", "--steps", "10000",
                "--outputs", "ideal,sigma"])

    def no_walk(*args):
        raise AssertionError("evolve called")

    monkeypatch.setattr(cli, "evolve", no_walk)
    out = tmp_path / "ideal"
    assert main(_tiny_args(out, ["--outputs", "ideal"])) == 0
    assert sorted(p.name for p in out.iterdir()) \
        == ["ideal.csv", "manifest.json"]


def test_kernel_sum_rule_violation_exits_3(tmp_path, capsys, monkeypatch):
    exact = wigner.cg_l0_family

    def skewed(two_j):
        return exact(two_j) * (1.0 + 1e-6)

    monkeypatch.setattr(wigner, "cg_l0_family", skewed)
    wigner.kernel_weights.cache_clear()
    wigner._theta_kernel.cache_clear()
    assert main(_tiny_args(tmp_path / "bad", ["--outputs", "sites"])) == 3
    assert "sum rule" in capsys.readouterr().err


def test_statistics_runs_build_no_grid(tmp_path, monkeypatch):
    def no_grid(*args):
        raise AssertionError("wigner_grid called")

    monkeypatch.setattr(cli, "wigner_grid", no_grid)
    out = tmp_path / "stats"
    assert main(_tiny_args(out, ["--outputs", "marginal,sites,sigma,ideal",
                                 "--grid-phi", "6"])) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # one residual per step: the exact marginal's total-mass error
    assert len(manifest["normalization_residuals"]) == 2
    assert max(manifest["normalization_residuals"]) < 1e-12


def test_site_statistics_do_not_depend_on_the_grid_resolution(tmp_path):
    # README: site probabilities and sigma come from the exact marginal, so
    # neither the grid resolution nor a grid built beside them moves a byte
    digests = set()
    for outputs in ("sites,sigma", "wigner,sites,sigma"):
        for resolution in ([], ["--grid-theta", "31", "--grid-phi", "97"],
                           ["--grid-theta", "60", "--grid-phi", "240"]):
            out = tmp_path / "_".join([outputs, *resolution])
            assert main(["--sites", "12", "--spins", "30", "--steps", "5",
                         "--no-svg", "--outputs", outputs, *resolution,
                         "--out", str(out)]) == 0
            files = json.loads((out / "manifest.json").read_text())["files"]
            assert ("wigner_k5.csv" in files) == ("wigner" in outputs)
            digests.add((files["sites.csv"], files["sigma.csv"]))
    assert len(digests) == 1


def test_a_run_builds_one_kernel_stack(tmp_path, cleared_caches):
    # every grid of a run shares one (spin, n_theta), so the one-entry
    # stack cache misses once and hits on every later step, and the size
    # estimate charges one stack
    steps = 3
    assert main(["--sites", "6", "--spins", "10", "--steps", str(steps),
                 "--outputs", "wigner", "--no-svg",
                 "--out", str(tmp_path / "run")]) == 0
    info = wigner._theta_frame_stack.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, steps, 1)


def test_default_resolution_is_valid_at_large_spin(tmp_path):
    argv = ["--sites", "6", "--spins", "200", "--steps", "0",
            "--outputs", "sites", "--no-svg", "--out", str(tmp_path / "n200")]
    assert main(argv) == 0


def test_unwritable_output_exits_4(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    argv = _tiny_args(blocker)
    assert main(argv) == 4
    assert "I/O error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# benchmark instrumentation
# ---------------------------------------------------------------------------

def test_benchmark_tracer_bindings_resolve(monkeypatch):
    """Every function the traced benchmark wraps still exists where its caller
    looks it up, so renaming a layer function cannot silently drop its spans
    from `perfbench/run.py --trace 1`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bindings = (tracer.CLI_BINDINGS + tracer.SCAN_BINDINGS
                + tracer.INNER_BINDINGS)
    assert bindings
    for module_name, attr, _ in bindings:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
