"""In-process span tracing of fluxgrid's public functions.

A span records name, start, end and the index of its parent span. While
a Tracer is installed, every module-global alias of each traced function
in the fluxgrid package is replaced by a timing wrapper, because
`from .x import f` copies the reference into the importing module. The
modules are reached through sys.modules, since the package attribute
`fluxgrid.refine` is the function, not the module.
"""

import os
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, layer metric prefix). Several functions may feed one
# prefix; a function missing from its module contributes nothing.
TRACED = [
    ("cli", "main", "cli.main_self"),
    ("cli", "cmd_metrics", "cli.cmd_self"),
    ("cli", "cmd_refine", "cli.cmd_self"),
    ("formats", "read_fgrd", "formats.read"),
    ("formats", "read_csv", "formats.read"),
    ("formats", "write_fgrd", "formats.write"),
    ("formats", "write_csv", "formats.write"),
    ("metrics", "metric_report", "metrics.metric_report"),
    ("supergrid", "pde_loss", "supergrid.pde_loss"),
    ("supergrid", "build_partition", "supergrid.build_partition"),
    ("supergrid", "cell_fluxes", "supergrid.cell_fluxes"),
    ("findiff", "gradient_central", "findiff.gradient_central"),
    ("refine", "refine", "refine.refine"),
    ("refine", "objective", "refine.objective"),
    ("refine", "gradient", "refine.gradient"),
    ("grid_core", "upsample_quadratic", "grid_core.upsample_quadratic"),
    ("spectral", "ralsd", "spectral.ralsd"),
    ("spectral", "power_spectrum_2d", "spectral.power_spectrum_2d"),
    ("spectral", "radial_profile", "spectral.radial_profile"),
    ("spectral", "fit_slope", "spectral.fit_slope"),
]
# Grid2D construction, with its finiteness check, is traced by patching
# the class, which every alias shares.
GRID2D_PREFIX = "grid_core.grid2d"


# Work counts per command, taken by _observe.
COUNTS = ["formats.read_bytes", "formats.write_bytes", "supergrid.n_cells",
          "supergrid.boundary_sites", "refine.iters", "refine.obj_ratio"]


def _observe(prefix, args, result, counts):
    """Work counts taken from the arguments and results of a traced call."""
    if prefix == "formats.read":
        counts["formats.read_bytes"] += os.path.getsize(args[0])
    elif prefix == "formats.write":
        counts["formats.write_bytes"] += os.path.getsize(args[1])
    elif prefix == "supergrid.pde_loss":
        fine = args[1]
        n_rows, n_cols = result.per_cell_sq_diff.shape
        counts["supergrid.n_cells"] = result.n_cells
        counts["supergrid.boundary_sites"] = (
            2 * n_rows * n_cols * (fine.height // n_rows + fine.width // n_cols))
    elif prefix == "refine.refine":
        counts["refine.iters"] = result.iters_run
        counts["refine.obj_ratio"] = result.objective[-1] / result.objective[0]


class Tracer:
    """Collects spans and counts for one traced call at a time."""

    def __init__(self):
        self.spans = []  # (prefix, start, end, parent index)
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []

    def _wrap(self, prefix, func):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (prefix, start, end, parent)
            _observe(prefix, args, result, self.counts)
            return result
        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fluxgrid" or name.startswith("fluxgrid."))]
        for mod_name, attr, prefix in TRACED:
            module = sys.modules.get(f"fluxgrid.{mod_name}")
            func = getattr(module, attr, None)
            if func is None:
                continue
            wrapper = self._wrap(prefix, func)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is func:
                        self._patched.append((mod, name, func))
                        setattr(mod, name, wrapper)
        grid2d = getattr(sys.modules.get("fluxgrid.grid_core"), "Grid2D", None)
        if grid2d is not None:
            self._patched.append((grid2d, "__init__", grid2d.__init__))
            grid2d.__init__ = self._wrap(GRID2D_PREFIX, grid2d.__init__)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def self_times(self):
        """Per-prefix (self seconds, calls): span length minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0])
        for (prefix, start, end, _), inner in zip(self.spans, child):
            totals[prefix][0] += end - start - inner
            totals[prefix][1] += 1
        return totals


def span_cost(calls=20000, repeats=5):
    """Seconds one span adds to a call: a traced no-op minus a bare one.

    The median over `repeats` batches of `calls` calls. A span costs
    about a microsecond and the bare call a tenth of that, so the
    difference stays positive however noisy the host is.
    """
    def noop():
        return None

    wrapped = Tracer()._wrap("span_cost", noop)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)
