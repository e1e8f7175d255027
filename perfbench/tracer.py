"""In-memory span recorder for the traced benchmark runs.

Spans are recorded from the benchmark's own files only: `install` replaces a
public function at the place its caller looks it up (for example
`blochwalk.cli.wigner_grid`, or `blochwalk.wigner.small_d_matrix` for the
call inside the wigner layer) with a wrapper that records (name, start, end,
parent).  Nothing is written until `dump`, at the end of the traced process.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

# (module the caller looks the name up in, attribute, span name).  The span
# name is the layer that defines the function, not the module it is bound in.
CLI_BINDINGS = [
    ("blochwalk.cli", "parse_config", "cli.parse_config"),
    ("blochwalk.cli", "run_experiment", "cli.run_experiment"),
    ("blochwalk.cli", "write_wigner_csv", "cli.write_wigner_csv"),
    ("blochwalk.cli", "write_marginal_csv", "cli.write_marginal_csv"),
    ("blochwalk.cli", "write_sites_csv", "cli.write_sites_csv"),
    ("blochwalk.cli", "write_sigma_csv", "cli.write_sigma_csv"),
    ("blochwalk.cli", "render_heatmap_svg", "render.render_heatmap_svg"),
    ("blochwalk.cli", "initial_state", "walk.initial_state"),
    ("blochwalk.cli", "evolve", "walk.evolve"),
    ("blochwalk.cli", "ideal_walk", "walk.ideal_walk"),
    ("blochwalk.cli", "ideal_sigma", "walk.ideal_sigma"),
    ("blochwalk.cli", "kernel_weights", "wigner.kernel_weights"),
    ("blochwalk.cli", "wigner_grid", "wigner.wigner_grid"),
    ("blochwalk.cli", "marginal_phi", "wigner.marginal_phi"),
    ("blochwalk.cli", "sigma_from_marginal", "wigner.sigma_from_marginal"),
]

# The parameter scan calls the package-level names, as a library user does.
SCAN_BINDINGS = [
    ("blochwalk", "initial_state", "walk.initial_state"),
    ("blochwalk", "evolve", "walk.evolve"),
    ("blochwalk", "reduce_walker", "walk.reduce_walker"),
    ("blochwalk", "wigner_grid", "wigner.wigner_grid"),
    ("blochwalk", "marginal_phi", "wigner.marginal_phi"),
    ("blochwalk", "sigma_from_marginal", "wigner.sigma_from_marginal"),
]

# Calls made inside the program's own layers, shared by both entry points.
INNER_BINDINGS = [
    ("blochwalk.walk", "site_state", "coherent.site_state"),
    ("blochwalk.wigner", "kernel_weights", "wigner.kernel_weights"),
    ("blochwalk.wigner", "cg_l0_family", "su2.cg_l0_family"),
    ("blochwalk.wigner", "small_d_matrix", "su2.small_d_matrix"),
]


class Tracer:
    """Single-threaded span recorder; the traced program runs one thread."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.grids: list[tuple] = []    # (n_theta, n_phi, dim, state)
        self._stack: list[int] = []
        self.enabled = True

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.spans[idx][1] = start
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "wigner.wigner_grid":
                n_theta, n_phi = result.values.shape
                self.grids.append((n_theta, n_phi, result.spin.dim, args[0]))
            return result
        return traced

    def install(self, bindings) -> None:
        for module_name, attr, name in bindings:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name))

    def dump(self, path) -> None:
        """Write spans and per-grid sizes; the grid's vector count (2 for a
        pure coin-walker state, the kept eigenvalues of a density matrix) is
        worked out here so that it stays outside every span."""
        import numpy as np
        from blochwalk import DensityMatrix

        grids = []
        for n_theta, n_phi, dim, state in self.grids:
            n_vec = 2
            if isinstance(state, DensityMatrix):
                evals = np.linalg.eigvalsh(state.entries)
                n_vec = int((np.abs(evals) > 1e-13).sum())
            grids.append([n_theta, n_phi, dim, n_vec])
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "grids": grids}, fh)
