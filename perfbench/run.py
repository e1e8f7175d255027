"""blochwalk benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a blochwalk source tree; the program is imported from
its `src/` directory.  One client drives the program in a closed loop: one
operation runs at a time.  A CLI operation is one `python -m blochwalk`
invocation in a fresh process; a `param-scan` operation is one scan point in
a single library-user process (scan.py).  Every measured process runs one
BLAS thread (see BLAS_THREADS).

With --trace 0 the last line of stdout carries the end-to-end metrics; with
--trace 1, the per-layer metrics of a separate traced run (tracer.py), whose
difference from untraced operations of the same run is `trace.overhead_s`.
Each operation's outputs are checked; a failed check counts the operation
as failed and makes `correct` false.  The lines before the last one repeat
every metric with its unit, plus `op_tail_s` where the run has enough
operations and `error_rate`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BALLISTIC = ["--sites", "40", "--spins", "200", "--steps", "9"]
STEPS = 9

WORKLOADS = {
    "ballistic-artifacts": {
        "cli": BALLISTIC,
        "files": ({f"{kind}_k{k}.{ext}" for k in range(STEPS + 1)
                   for kind, ext in (("wigner", "csv"), ("wigner", "svg"),
                                     ("marginal", "csv"))}
                  | {"sites.csv", "sigma.csv", "ideal.csv"}),
    },
    "ballistic-stats": {
        "cli": BALLISTIC + ["--outputs", "sites,sigma,ideal", "--no-svg"],
        "files": {"sites.csv", "sigma.csv", "ideal.csv"},
    },
    "param-scan": {},
}

END_TO_END_UNITS = {"op_p50_s": "s", "states_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "artifact_mb": "MB"}

PER_LAYER_UNITS = {
    "cli.parse_config.busy_s": "s",
    "cli.run_experiment.busy_s": "s",
    "cli.run_experiment.self_s": "s",
    "cli.write_wigner_csv.busy_s": "s",
    "cli.write_wigner_csv.bytes": "bytes",
    "cli.write_marginal_csv.busy_s": "s",
    "cli.write_sites_csv.busy_s": "s",
    "cli.write_sigma_csv.busy_s": "s",
    "render.render_heatmap_svg.busy_s": "s",
    "render.svg.bytes": "bytes",
    "render.svg.rects": "count",
    "wigner.wigner_grid.calls": "count",
    "wigner.wigner_grid.busy_s": "s",
    "wigner.wigner_grid.self_s": "s",
    "wigner.grid.cells": "count-computed",
    "wigner.grid.flops": "flop-computed",
    "wigner.marginal_phi.busy_s": "s",
    "wigner.sigma_from_marginal.busy_s": "s",
    "wigner.kernel_weights.busy_s": "s",
    "wigner.dstack.builds": "count",
    "wigner.dstack.hit_ratio": "ratio",
    "su2.small_d_matrix.calls": "count",
    "su2.small_d_matrix.busy_s": "s",
    "su2.cg_l0_family.calls": "count",
    "su2.cg_l0_family.busy_s": "s",
    "walk.evolve.busy_s": "s",
    "walk.reduce_walker.busy_s": "s",
    "walk.ideal_walk.busy_s": "s",
    "coherent.site_state.busy_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

OP_TIMEOUT_S = 150.0
MIN_COVERAGE = 0.90


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, wrong import)."""


# One thread, never more than the CPUs this process may use: on a 2-CPU host
# back-to-back ballistic runs spread 12.1-14.9 s with two OpenBLAS threads
# and 16.5-17.0 s with one.
BLAS_THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv, log_path: Path, timeout: float = OP_TIMEOUT_S):
    """Run one process to completion from the tree root.

    Returns (exit code, wall seconds, peak RSS in MB from the child's own
    rusage).  A child still running after `timeout` is killed.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def probe(work: Path) -> dict:
    """Check that the measured process imports blochwalk from this tree and
    report the library versions it sees."""
    code = ("import json, numpy, blochwalk.cli\n"
            "blas = numpy.show_config(mode='dicts')['Build Dependencies']"
            "['blas']\n"
            "print(json.dumps({'file': blochwalk.cli.__file__, "
            "'numpy': numpy.__version__, 'blas': blas.get('name'), "
            "'blas_version': blas.get('version')}))\n")
    log = work / "probe.log"
    rc, _, _ = run_child([sys.executable, "-c", code], log, timeout=60)
    text = log.read_text()
    if rc != 0:
        raise BenchError(f"cannot import blochwalk from {SRC}:\n{text}")
    info = json.loads(text.strip().splitlines()[-1])
    if Path(info["file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"blochwalk imported from {info['file']}, "
                         f"not from {SRC}")
    return info


def measure_setup(work: Path, repeats: int = 11) -> float:
    """Median seconds from interpreter start to `blochwalk.cli` imported."""
    argv = [sys.executable, "-c", "import blochwalk.cli"]
    walls = []
    for _ in range(repeats):
        rc, wall, _ = run_child(argv, work / "setup.log", timeout=60)
        if rc != 0:
            raise BenchError((work / "setup.log").read_text())
        walls.append(wall)
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# Correctness checks on one CLI operation
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def check_cli_outputs(out: Path, expected: set[str]) -> tuple[list, dict]:
    """Problems found in one run's outputs, and the manifest's checksums."""
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"], {}
    files = manifest.get("files", {})
    problems = []
    if set(files) != expected:
        problems.append(f"manifest lists {sorted(files)}, "
                        f"expected {sorted(expected)}")
    residuals = manifest.get("normalization_residuals", [])
    if len(residuals) != STEPS + 1 or not all(r <= 1e-4 for r in residuals):
        problems.append(f"Wigner normalization residuals {residuals}")

    site_sums = defaultdict(float)
    for k, _, _, prob in read_csv(out / "sites.csv"):
        site_sums[int(k)] += float(prob)
    for k in range(STEPS + 1):
        err = abs(site_sums[k] - 1.0)
        if not err <= 1e-9:
            problems.append(f"step {k}: site probabilities sum off by {err!r}")

    for k, coherent, ideal in read_csv(out / "sigma.csv"):
        if int(k) >= 2 and not (abs(float(coherent) - float(ideal))
                                <= 0.05 * float(ideal)):
            problems.append(f"step {k}: sigma_coherent {coherent} is not "
                            f"within 5% of sigma_ideal {ideal}")
    return problems, files


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced operation's spans
# ---------------------------------------------------------------------------

def layer_metrics(doc: dict, root: str) -> dict:
    """busy/self/calls per span name, d-stack and grid counts, and coverage.

    The top-level layer spans of an operation are the root's children, with
    `cli.run_experiment` replaced by its own children; the part of the root
    they leave uncovered is orchestration (mostly run_experiment's self time).
    """
    spans = doc["spans"]
    child_s = [0.0] * len(spans)
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            child_s[parent] += end - start
            children[parent].append(i)
    busy, self_s, calls = defaultdict(float), defaultdict(float), Counter()
    for i, (name, start, end, _) in enumerate(spans):
        busy[name] += end - start
        self_s[name] += end - start - child_s[i]
        calls[name] += 1

    root_s = covered_s = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        if name != root:
            continue
        root_s += end - start
        for c in children[i]:
            if spans[c][0] == "cli.run_experiment":
                covered_s += child_s[c]
            else:
                covered_s += spans[c][2] - spans[c][1]

    grid_spans = [i for i, s in enumerate(spans)
                  if s[0] == "wigner.wigner_grid"]
    small_d = Counter(s[3] for s in spans if s[0] == "su2.small_d_matrix")
    grids = doc["grids"]
    builds = sum(small_d[i] / grids[j][0] for j, i in enumerate(grid_spans))

    m = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in PER_LAYER_UNITS:
        layer, _, kind = name.rpartition(".")
        if kind == "busy_s":
            m[name] = busy[layer]
        elif kind == "self_s":
            m[name] = self_s[layer]
        elif kind == "calls":
            m[name] = calls[layer]
    m["wigner.grid.cells"] = sum(t * p for t, p, _, _ in grids)
    m["wigner.grid.flops"] = sum(t * 2 * d * d * 2 * v * p
                                 for t, p, d, v in grids)
    m["wigner.dstack.builds"] = builds
    m["wigner.dstack.hit_ratio"] = (1.0 - builds / len(grids)) if grids else 0.0
    m["trace.coverage"] = covered_s / root_s if root_s else 0.0
    return m


def artifact_layer_metrics(out: Path) -> dict:
    svgs = sorted(out.glob("wigner_k*.svg"))
    return {
        "cli.write_wigner_csv.bytes": sum(
            p.stat().st_size for p in out.glob("wigner_k*.csv")),
        "render.svg.bytes": sum(p.stat().st_size for p in svgs),
        "render.svg.rects": sum(p.read_bytes().count(b"<rect") for p in svgs),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Run:
    """Counters and measurements of one benchmark run."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_s: list[float] = []

    def record(self, ok: bool, problems) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.problems.extend(problems)


def cli_op(run: Run, spec: dict, first_files: list,
           traced: bool = False) -> dict | None:
    """One CLI invocation in a fresh process, checked; returns its
    measurements, or None when it failed."""
    index = run.attempted
    out = run.work / f"op{index}"
    spans = run.work / f"spans{index}.json"
    cli_args = spec["cli"] + ["--out", str(out)]
    if traced:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans),
                "--"] + cli_args
    else:
        argv = [sys.executable, "-m", "blochwalk"] + cli_args
    log = run.work / f"op{index}.log"
    rc, wall, rss = run_child(argv, log)
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}: {log.read_text()[-2000:]}")
    else:
        problems, files = check_cli_outputs(out, spec["files"])
        if not first_files:
            first_files.append(files)
        elif files != first_files[0]:
            problems.append("manifest checksums differ from the first "
                            "operation of this run")
    result = None
    if not problems:
        result = {"wall": wall, "rss": rss,
                  "bytes": sum(p.stat().st_size for p in out.iterdir())}
        if traced:
            result["layers"] = layer_metrics(json.loads(spans.read_text()),
                                             "cli.main")
            result["layers"].update(artifact_layer_metrics(out))
    run.record(result is not None, [f"op {index}: {p}" for p in problems])
    shutil.rmtree(out, ignore_errors=True)
    return result


def cli_workload(run: Run, spec: dict, seconds: float) -> dict:
    first_files: list = []
    results = []
    start = time.perf_counter()
    # At least two operations, so that the determinism check has a repeat.
    while True:
        elapsed = time.perf_counter() - start
        if run.attempted >= 2 and (
                not run.op_s
                or elapsed + statistics.median(run.op_s) > seconds):
            break
        if run.attempted == 1 and elapsed * 2 > OP_TIMEOUT_S:
            break
        res = cli_op(run, spec, first_files)
        if res is not None:
            results.append(res)
            run.op_s.append(res["wall"])
    if not results:
        return {}
    return {
        "op_p50_s": statistics.median(run.op_s),
        "states_per_s": (STEPS + 1) * len(results) / sum(run.op_s),
        "peak_rss_mb": statistics.median(r["rss"] for r in results),
        "artifact_mb": statistics.median(r["bytes"] for r in results) / 1e6,
    }


def cli_traced(run: Run, spec: dict, seconds: float) -> dict:
    """Pairs of one untraced and one traced invocation; per-layer medians."""
    first_files: list = []
    pairs = []
    start = time.perf_counter()
    while not pairs or (time.perf_counter() - start) * (len(pairs) + 1) \
            / len(pairs) <= seconds:
        plain = cli_op(run, spec, first_files)
        traced = cli_op(run, spec, first_files, traced=True)
        if plain is None or traced is None:
            if not pairs and run.attempted >= 4:
                break
            continue
        traced["layers"]["trace.overhead_s"] = traced["wall"] - plain["wall"]
        pairs.append(traced["layers"])
    return median_layers(pairs)


def median_layers(samples: list[dict]) -> dict:
    if not samples:
        return {}
    return {name: statistics.median(s[name] for s in samples)
            for name in PER_LAYER_UNITS}


def scan_worker(run: Run, seed: int, tag: str, stop: list[str],
                spans: Path | None = None):
    """One scan.py process; returns (its result JSON, peak RSS MB)."""
    out = run.work / f"scan{tag}.json"
    argv = [sys.executable, str(HERE / "scan.py"), "--seed", str(seed),
            "--out", str(out), "--records",
            str(run.work / f"records{tag}.jsonl")] + stop
    if spans is not None:
        argv += ["--spans", str(spans)]
    log = run.work / f"scan{tag}.log"
    rc, _, rss = run_child(argv, log, timeout=OP_TIMEOUT_S)
    if rc != 0:
        run.record(False, [f"scan worker exit code {rc}: "
                           f"{log.read_text()[-2000:]}"])
        return None, rss
    result = json.loads(out.read_text())
    for _, op_s in result["ops"]:
        run.record(op_s is not None, [])
    run.problems.extend(result["failures"])
    return result, rss


def scan_workload(run: Run, seed: int, seconds: float) -> dict:
    result, rss = scan_worker(run, seed, "", ["--seconds", str(seconds)])
    if result is None:
        return {}
    run.op_s = [s for _, s in result["ops"] if s is not None]
    if not run.op_s:
        return {}
    return {
        "op_p50_s": statistics.median(run.op_s),
        "states_per_s": len(run.op_s) / sum(run.op_s),
        "peak_rss_mb": rss,
        "artifact_mb": result["records_bytes"] / len(result["ops"]) / 1e6,
    }


def scan_traced(run: Run, seed: int, seconds: float) -> dict:
    """Pairs of one untraced and one traced process, each one scan pass."""
    pairs = []
    start = time.perf_counter()
    while not pairs or (time.perf_counter() - start) * (len(pairs) + 1) \
            / len(pairs) <= seconds:
        tag = str(len(pairs))
        plain, _ = scan_worker(run, seed, "p" + tag, ["--passes", "1"])
        spans = run.work / f"spans{tag}.json"
        traced, _ = scan_worker(run, seed, "t" + tag, ["--passes", "1"],
                                spans)
        if plain is None or traced is None or run.failed:
            break
        layers = layer_metrics(json.loads(spans.read_text()), "scan.point")
        layers["trace.overhead_s"] = (sum(s for _, s in traced["ops"])
                                      - sum(s for _, s in plain["ops"]))
        pairs.append(layers)
    return median_layers(pairs)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, or None when the run has fewer than 20 samples."""
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            ordered = sorted(values)
            return pct, ordered[min(n - 1, math.ceil(n * pct / 100.0) - 1)]
    return None


def report(args, run: Run, metrics: dict, units: dict, info: dict) -> int:
    correct = (run.failed == 0 and not run.problems
               and set(metrics) == set(units))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas_threads {BLAS_THREADS}  nproc {len(os.sched_getaffinity(0))}  "
          f"numpy {info['numpy']}  "
          f"{info['blas']} {info['blas_version']}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:36s} {metrics[name]:.6g} {unit}")
    if args.trace == 0:
        if len(run.op_s) < 20:
            print(f"  {'op_s samples':36s} "
                  + " ".join(f"{s:.4g}" for s in run.op_s))
        t = tail(run.op_s)
        if t is None:
            print(f"  {'op_tail_s':36s} not reported: {len(run.op_s)} "
                  f"operations, a tail needs at least 20")
        else:
            beyond = len(run.op_s) - math.ceil(len(run.op_s) * t[0] / 100.0)
            print(f"  {'op_tail_s':36s} {t[1]:.6g} s  (p{t[0]:g} of "
                  f"{len(run.op_s)} operations, {beyond} beyond it)")
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'error_rate':36s} {rate:.6g}  ({run.failed} of "
          f"{run.attempted} operations failed)")
    if args.trace == 1 and "trace.coverage" in metrics \
            and not metrics["trace.coverage"] >= MIN_COVERAGE:
        correct = False
        print(f"layer spans cover {metrics['trace.coverage']:.3f} of "
              f"operation wall time, below {MIN_COVERAGE}", file=sys.stderr)
    for p in run.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "blochwalk" / "__init__.py").is_file():
        print(f"perfbench: no blochwalk source tree at {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        info = probe(work)
        run = Run(work)
        spec = WORKLOADS[args.workload]
        if args.trace == 1:
            if args.workload == "param-scan":
                metrics = scan_traced(run, args.seed, args.seconds)
            else:
                metrics = cli_traced(run, spec, args.seconds)
            return report(args, run, metrics, PER_LAYER_UNITS, info)
        setup_s = measure_setup(work)
        if args.workload == "param-scan":
            metrics = scan_workload(run, args.seed, args.seconds)
        else:
            metrics = cli_workload(run, spec, args.seconds)
        if metrics:
            metrics["setup_s"] = setup_s
        return report(args, run, metrics, END_TO_END_UNITS, info)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
