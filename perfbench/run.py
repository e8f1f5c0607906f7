"""fluxgrid benchmark: the `metrics` and `refine` commands on synthetic rasters.

    python3 perfbench/run.py --workload metrics-1024 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Inputs are made from --seed through fluxgrid's public API.

--trace 0 runs the CLI as a child process (`python -m fluxgrid.cli`),
one command at a time in a closed loop, for --seconds seconds, and
reports the medians of wall time, CPU time and peak RSS per command,
plus the time a child takes to start and import fluxgrid.cli (setup_s).
Timings are scaled by a fixed reference job run before each command,
so that the shared host's drift in speed cancels (see README.md).
--trace 1 calls fluxgrid.cli.main in-process instead, alternating
untraced and traced calls, and reports the self time and call count of
each traced layer per command (see spans.py and README.md).

Every output is checked against values computed by oracle.py, or for
`refine` against objective ratios recorded at the benchmark's first
commit (reference.json). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import statistics
import struct
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads its BLAS

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from spans import COUNTS, GRID2D_PREFIX, TRACED, Tracer, span_cost  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_ENV = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
CHILD_TIMEOUT_S = 30  # keeps a hung command within the run's time limit
MIN_SAMPLES = 3

# The shared host runs everything up to a third slower for minutes at a
# time. Each command is therefore paired with this fixed job, which does
# not touch fluxgrid (start Python, import numpy, parse floats, take FFTs),
# and its timings are scaled by REFERENCE_S / the job's wall time: they
# read as seconds on a host where the job takes REFERENCE_S.
REFERENCE_JOB = """
import numpy as np
a = np.random.default_rng(0).standard_normal((512, 512))
text = ",".join(map(repr, a[:96].ravel().tolist()))
total = sum(float(cell) for cell in text.split(","))
for _ in range(6):
    a = np.abs(np.fft.fft2(a)) ** 0.5
"""
REFERENCE_S = 0.3

# Reports must match the oracle to this relative tolerance; integers exactly.
REL_TOL = 1e-6
ABS_TOL = 1e-12
# The refine output is stored as float32, so its fidelity term is
# recomputed from the file only to this relative tolerance.
FIDELITY_REL_TOL = 1e-3

WORKLOADS = {
    # many small cells (4x4 pixels, boundary sites = pixel count): supergrid,
    # spectral and metric_report share the time
    "metrics-1024": {"command": "metrics", "size": 1024, "ext": "fgrd"},
    # few large cells (16x16 pixels): adjoint and line search dominate,
    # no spectral work
    "refine-512": {"command": "refine", "size": 512, "ext": "fgrd"},
    # text parsing instead of binary reads: I/O dominates, compute is small
    "metrics-csv-512": {"command": "metrics", "size": 512, "ext": "csv"},
}
SCALE = 4
REFINE_ARGS = ["--cell", "4x4", "--lam", "1", "--iters", "20"]
REFINE_CELL = (4, 4)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def import_fluxgrid():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fluxgrid
    import fluxgrid.cli  # noqa: F401
    return fluxgrid


@dataclass
class Inputs:
    """The argv of the command under test, its output files, and what to expect."""

    argv: list
    outputs: list
    expected: dict


def make_inputs(workload, seed, size=None):
    """Write one workload's inputs for this seed; compute the expected outputs.

    truth is a slope -2.5 GRF, coarse its 4x4 block mean, and pred/init
    truth plus Gaussian noise of 0.1 std drawn from the same seed. size
    overrides the workload's grid size (the self-test uses a tiny one).
    """
    fg = import_fluxgrid()
    spec = WORKLOADS[workload]
    n = size or spec["size"]
    workdir = WORK / workload
    workdir.mkdir(parents=True, exist_ok=True)
    truth = fg.gen_grf(fg.GrfSpec(n, n, -2.5, seed))
    coarse = fg.coarsen_block_mean(truth, SCALE, SCALE)
    noise = np.random.default_rng(seed).standard_normal((n, n))
    noisy = truth.with_values(truth.values + 0.1 * truth.values.std() * noise)

    ext = spec["ext"]
    write = fg.write_csv if ext == "csv" else fg.write_fgrd

    def put(name, grid):
        """Write grid; return its path and the values the program will read."""
        path = workdir / f"{name}.{ext}"
        write(grid, path)
        if ext == "csv":  # 17 significant digits round-trip doubles exactly
            return str(path), grid.values
        return str(path), grid.values.astype(np.float32).astype(np.float64)

    fine_d, coarse_d = (truth.dx, truth.dy), (coarse.dx, coarse.dy)
    if spec["command"] == "metrics":
        (p_path, pred), (t_path, tv), (c_path, cv) = (
            put("pred", noisy), put("truth", truth), put("coarse", coarse))
        report = workdir / "report.json"
        argv = ["metrics", p_path, t_path, c_path, "--out", str(report)]
        expected = oracle.metrics_report(pred, tv, cv, fine_d, coarse_d)
        return Inputs(argv, [report], expected)

    (i_path, init), (c_path, cv) = put("init", noisy), put("coarse", coarse)
    out, trace = workdir / "refined.fgrd", workdir / "trace.csv"
    argv = ["refine", i_path, c_path, *REFINE_ARGS, "--out", str(out), "--trace", str(trace)]
    expected = {
        "init": init,
        "seed": seed,
        "pde0": oracle.pde_loss(init, fine_d, cv, coarse_d, REFINE_CELL)[0],
    }
    return Inputs(argv, [out, trace], expected)


def reference_obj_ratio(size, seed):
    """J_final / J_0 of `refine` recorded at the benchmark's first commit.

    Seeds outside the recorded table get the worst recorded ratio.
    """
    table = load_json(HERE / "reference.json")["refine_obj_ratio"][str(size)]
    return table.get(str(seed), max(table.values()))


# ---------------------------------------------------------------- checks

def _nonfinite(doc, path="report"):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nonfinite(value, f"{path}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nonfinite(value, f"{path}[{i}]")
    elif isinstance(doc, float) and not math.isfinite(doc):
        yield f"{path} is {doc}"


def _mismatches(expected, got, path=""):
    if isinstance(expected, dict):
        for key, value in expected.items():
            if not isinstance(got, dict) or key not in got:
                yield f"{path}.{key} missing"
            else:
                yield from _mismatches(value, got[key], f"{path}.{key}")
    elif isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            yield f"{path}: {got!r} != {expected!r}"
        else:
            for i, (e, g) in enumerate(zip(expected, got)):
                yield from _mismatches(e, g, f"{path}[{i}]")
    elif isinstance(expected, int):
        if got != expected:
            yield f"{path}: {got!r} != {expected!r}"
    elif not isinstance(got, (int, float)) or not math.isclose(
            got, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        yield f"{path}: {got!r} != {expected!r} (rel tol {REL_TOL})"


def check_metrics(inputs):
    """Problems with a `metrics` JSON report; empty when it is correct."""
    doc = load_json(inputs.outputs[0])
    return list(_nonfinite(doc)) + list(_mismatches(inputs.expected, doc))


def read_fgrd_values(path):
    """FGRD payload as float64, parsed here rather than by the package."""
    data = Path(path).read_bytes()
    magic, _, height, width, _, _ = struct.unpack_from("<4sHIIdd", data)
    if magic != b"FGRD" or len(data) != 30 + 4 * height * width:
        raise ValueError(f"{path}: not an FGRD file of {height}x{width}")
    return np.frombuffer(data, "<f4", offset=30).astype(np.float64).reshape(height, width)


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(row[key]) for row in rows]
            for key in ("objective", "fidelity", "pde")}


def check_refine(inputs):
    """Problems with a `refine` output field and trace; empty when correct."""
    exp = inputs.expected
    out = read_fgrd_values(inputs.outputs[0])
    tr = read_trace(inputs.outputs[1])
    obj = tr["objective"]
    problems = []
    if out.shape != exp["init"].shape:
        problems.append(f"refined field is {out.shape}, input is {exp['init'].shape}")
    elif not np.all(np.isfinite(out)):
        problems.append("refined field has non-finite values")
    else:
        fid = float(np.mean((out - exp["init"]) ** 2))
        if not math.isclose(fid, tr["fidelity"][-1], rel_tol=FIDELITY_REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"fidelity of the written field {fid!r} != trace "
                            f"{tr['fidelity'][-1]!r}")
    if not all(math.isfinite(v) for col in tr.values() for v in col):
        problems.append("trace has non-finite values")
    if any(b > a for a, b in zip(obj, obj[1:])):
        problems.append("trace objective rises")
    if not math.isclose(tr["pde"][0], exp["pde0"], rel_tol=REL_TOL):
        problems.append(f"initial L_PDE {tr['pde'][0]!r} != {exp['pde0']!r}")
    ratio = obj[-1] / obj[0]
    limit = reference_obj_ratio(exp["init"].shape[0], exp["seed"])
    if ratio > limit * (1 + 1e-9):
        problems.append(f"J_final/J_0 = {ratio!r} is worse than the recorded {limit!r}")
    return problems


def check(inputs):
    for path in inputs.outputs:
        if not Path(path).exists():
            return [f"{path} was not written"]
    if inputs.argv[0] == "metrics":
        return check_metrics(inputs)
    return check_refine(inputs)


class Tally:
    """Commands attempted and failed; a failure is a non-zero exit or a bad output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, code, inputs):
        self.attempted += 1
        try:
            problems = [f"exit code {code}"] if code != 0 else check(inputs)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError,
                struct.error) as exc:
            problems = [f"output unreadable: {exc!r}"]
        if problems:
            self.failed += 1
            print(f"check failed: {'; '.join(problems[:3])}", file=sys.stderr)


def clear_outputs(inputs):
    for path in inputs.outputs:
        Path(path).unlink(missing_ok=True)


# ------------------------------------------------------- end-to-end (trace 0)

def run_child(args, log):
    """(exit code, wall s, cpu s, peak RSS MB) of one child, from its own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=CHILD_ENV,
                            stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_reference(log):
    """Wall seconds of one run of REFERENCE_JOB."""
    code, wall, _, _ = run_child(["-c", REFERENCE_JOB], log)
    if code != 0:
        raise RuntimeError(f"the reference job exited {code}")
    return wall


def run_end_to_end(inputs, seconds, tally):
    """Cycle the reference job, an import-only child and one command until
    the time is up; timings are scaled by the reference job of their cycle."""
    cmd = ["-m", "fluxgrid.cli", *inputs.argv]
    setup = ["-c", "import fluxgrid.cli"]
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": [], "reference_s": []}
    with open(WORK / "child_stderr.log", "w") as log:
        run_reference(log)
        run_child(setup, log)  # compiles bytecode and warms the page cache
        clear_outputs(inputs)
        tally.record(run_child(cmd, log)[0], inputs)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(samples["wall_s"]) < MIN_SAMPLES:
            reference = run_reference(log)
            scale = REFERENCE_S / reference
            samples["reference_s"].append(reference)
            samples["setup_s"].append(run_child(setup, log)[1] * scale)
            clear_outputs(inputs)
            code, wall, cpu, rss = run_child(cmd, log)
            tally.record(code, inputs)
            samples["wall_s"].append(wall * scale)
            samples["cpu_s"].append(cpu * scale)
            samples["peak_rss_mb"].append(rss)
    return samples


# ------------------------------------------------------------ traced (trace 1)

def run_traced(inputs, seconds, tally):
    """Per-command layer self times and counts, means over the traced calls."""
    import_fluxgrid()
    tracer = Tracer()
    devnull = open(os.devnull, "w")

    def call(traced):
        clear_outputs(inputs)
        if traced:
            tracer.install()
        main = sys.modules["fluxgrid.cli"].main
        try:
            with contextlib.redirect_stdout(devnull):
                start = time.perf_counter()
                try:
                    code = main(list(inputs.argv))
                except SystemExit as exc:  # as the child process would exit
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash fails the command, as in --trace 0
                    traceback.print_exc()
                    code = 1
                elapsed = time.perf_counter() - start
        finally:
            tracer.uninstall()
        tally.record(code, inputs)
        return elapsed

    prefixes = {prefix for _, _, prefix in TRACED} | {GRID2D_PREFIX}
    totals = {name: 0.0 for p in prefixes for name in (f"{p}_s", f"{p}_calls")}
    totals.update({name: 0.0 for name in COUNTS})
    untraced, traced, spans = [], [], 0
    with devnull:
        call(traced=False)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(traced) < MIN_SAMPLES:
            # alternate which call of a pair goes first, so order effects cancel
            if len(traced) % 2:
                untraced.append(call(traced=False))
            tracer.reset()
            traced.append(call(traced=True))
            spans += len(tracer.spans)
            if len(traced) % 2:
                untraced.append(call(traced=False))
            for prefix, (self_s, calls) in tracer.self_times().items():
                totals[f"{prefix}_s"] += self_s
                totals[f"{prefix}_calls"] += calls
            for name, value in tracer.counts.items():
                totals[name] += value
    n = len(traced)
    cost = span_cost()
    layers = {name: value / n for name, value in totals.items()}
    self_sum = sum(v for k, v in layers.items() if k.endswith("_s"))
    iters = layers["refine.iters"]
    layers.update({
        "refine.evals_per_iter": layers["refine.objective_calls"] / iters if iters else 0.0,
        "trace.inprocess_s": statistics.fmean(traced),
        "trace.untraced_s": statistics.fmean(untraced),
        "trace.overhead_s": spans / n * cost,
        "trace.unattributed_s": statistics.fmean(traced) - self_sum,
        "trace.spans": spans / n,
    })
    return layers, n


# ------------------------------------------------------------------- main

def environment():
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fluxgrid").glob("*.py")):
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "git_sha": sha, "src_sha256": digest.hexdigest()}


def metric_units(kind):
    return {m["name"]: m["unit"] for m in load_json(ROOT / "BENCHMARK.json")[kind]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, size=None):
    """The result object printed as the last line of stdout."""
    inputs = make_inputs(args.workload, args.seed, size)
    tally = Tally()
    if args.trace:
        values, n = run_traced(inputs, args.seconds, tally)
        units = metric_units("per_layer")
        print(f"traced commands: {n} (means per command)")
    else:
        samples = run_end_to_end(inputs, args.seconds, tally)
        values = {name: statistics.median(vals) for name, vals in samples.items()}
        units = metric_units("end_to_end")
        print("medians over samples: " + ", ".join(
            f"{name}={values[name]:.4g} (n={len(vals)})" for name, vals in samples.items()))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fluxgrid" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a fluxgrid checkout; {SRC / 'fluxgrid'} or "
              "BENCHMARK.json is missing", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(environment(), sort_keys=True))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
