"""Command-line surface: synth / metrics / refine / ralsd.

Exit codes: 0 success, 1 I/O, 2 usage, 3 dimension mismatch,
4 degenerate math, 5 optimizer stall.
"""

import argparse
import gc
import os
import pickle
import sys
import threading
import time
import warnings

import numpy as np

from . import __version__
from .errors import (ConvergenceStallError, CsvParseError,
                     DegenerateSpectrumError, DegenerateVarianceError,
                     DimensionMismatchError, FormatError, StabilityError,
                     TooSmallGridError)
from .findiff import DEFAULT_EPS
from .formats import read_csv, read_fgrd, write_fgrd
from .grid_core import GridPair, check_scales, make_pair
from .metrics import metric_report
from .refine import RefineConfig, refine
from .spectral import ralsd, ralsd_upsampled_pair
from .supergrid import pde_loss
from .synth import AdvDiffSpec, GrfSpec, gen_affine, gen_grf, step_advdiff

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DIMS = 3
EXIT_DEGENERATE = 4
EXIT_STALL = 5

# (error types, exit code); the first match wins
ERROR_EXITS = (((FormatError, CsvParseError, OSError), EXIT_IO),
               ((DimensionMismatchError, TooSmallGridError), EXIT_DIMS),
               ((DegenerateVarianceError, DegenerateSpectrumError), EXIT_DEGENERATE),
               (ConvergenceStallError, EXIT_STALL),
               ((ValueError, StabilityError), EXIT_USAGE))

# synth advdiff's scenario: (config key and flag dest, flag, type, default)
ADVDIFF_KEYS = (("h", "--h", int, 64), ("w", "--w", int, 64), ("seed", "--seed", int, 0),
                ("init_slope", "--init-slope", float, -2.5), ("ux", "--ux", float, 0.0),
                ("uy", "--uy", float, 0.0), ("diffusivity", "--D", float, 0.0),
                ("dt", "--dt", float, 0.1), ("steps", "--steps", int, 0))


def _sha256(path):
    import hashlib  # here, as json in cmd_metrics: only metrics pays for their import
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_hashes(args):
    return {name: {"path": path, "sha256": _sha256(path)}
            for name, path in (("pred", args.pred), ("truth", args.truth),
                               ("coarse", args.coarse))}


def _load_grid(path):
    if str(path).endswith(".csv"):
        return read_csv(path)
    return read_fgrd(path)


def _send_grid(path, read_fd, write_fd):
    """A forked worker's whole life: load the grid at path, pickle it to
    write_fd, and exit 0, or 1 on any failure, printing nothing. It closes
    the pipe's read end, so that its write fails if the parent dies."""
    status = 1
    try:
        os.close(read_fd)
        grid = _load_grid(path)
        with open(write_fd, "wb") as out:
            pickle.dump(grid, out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _receive_grid(pipe):
    """The grid _send_grid pickled to pipe, or None if it stopped short. Our own
    child wrote it, so it is safe to unpickle, and read_csv there checked it."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return None


def _load_grids(pred_path, truth_path, coarse_path):
    """pred, truth and coarse, failing as loading them in that order would.
    A CSV truth is parsed in a forked worker while this process parses pred
    (np.loadtxt holds the GIL, so a thread cannot overlap the two); if the
    worker fails or cannot fork, truth is loaded here: the serial error wins."""
    if not str(truth_path).endswith(".csv"):
        return [_load_grid(path) for path in (pred_path, truth_path, coarse_path)]
    import signal  # here, as hashlib in _sha256: only a CSV truth's worker needs it killed
    read_fd, write_fd = os.pipe()
    try:
        # Python >= 3.12 warns at a fork beside threads (OpenBLAS's). The child
        # only parses, writes the pipe and calls os._exit; glibc resets malloc's
        # locks at fork; and it makes no BLAS call, so it takes no lock theirs hold.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except (AttributeError, OSError):  # no os.fork (Windows) or no process to spare:
        pid = None  # the pipe reads empty, as from a failed worker
    if pid == 0:
        _send_grid(truth_path, read_fd, write_fd)
    try:
        os.close(write_fd)
        with open(read_fd, "rb") as pipe:
            pred = _load_grid(pred_path)
            truth = _receive_grid(pipe)
    finally:  # killing a worker that has already exited is harmless
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if truth is None:
        truth = _load_grid(truth_path)
    return pred, truth, _load_grid(coarse_path)


def _parse_cell(text):
    try:
        ch, cw = text.lower().split("x")
        ch, cw = int(ch), int(cw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects CHxCW (e.g. 3x2), got {text!r}") from None
    if ch < 1 or cw < 1:
        raise argparse.ArgumentTypeError(f"dims must be positive, got {text!r}")
    return ch, cw


def _read_config(path):
    """key = value lines of ADVDIFF_KEYS, each value of its key's type; blank
    lines and #-comments ignored."""
    types = {key: cast for key, _, cast, _ in ADVDIFF_KEYS}
    conf = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq or key not in types:
                raise ValueError(f"config line {line_no}: expected key = value with a key "
                                 f"of {', '.join(types)}, got {line!r}")
            try:
                conf[key] = types[key](value)
            except ValueError:
                raise ValueError(f"config line {line_no}: {key} = {value!r} does not parse "
                                 f"as {types[key].__name__}") from None
    return conf


def _print_field_summary(label, grid):
    print(f"{label}: {grid.height}x{grid.width} dx={grid.dx:g} dy={grid.dy:g} "
          f"mean={grid.values.mean():.6g} std={grid.values.std():.6g}")


def cmd_synth(args):
    if args.mode == "advdiff":
        conf = _read_config(args.config) if args.config else {}
        for key, _, _, default in ADVDIFF_KEYS:  # flag, then config file, then default
            if getattr(args, key) is None:
                setattr(args, key, conf.get(key, default))
    check_scales(args.h, args.w, args.scale, args.scale)  # before the field is built
    if args.mode == "grf":
        fine = gen_grf(GrfSpec(args.h, args.w, args.slope, args.seed, args.amplitude),
                       args.dx, args.dy)
    elif args.mode == "affine":
        fine = gen_affine(args.h, args.w, args.a, args.b, args.c, args.dx, args.dy)
    else:  # advdiff
        initial = gen_grf(GrfSpec(args.h, args.w, args.init_slope, args.seed),
                          args.dx, args.dy)
        fine = step_advdiff(AdvDiffSpec(args.ux, args.uy, args.diffusivity, args.dt,
                                        args.steps, initial))

    pair = make_pair(fine, args.scale, args.scale)
    write_fgrd(pair.fine, args.out_fine)
    _print_field_summary("fine", pair.fine)
    if args.out_coarse:
        write_fgrd(pair.coarse, args.out_coarse)
        _print_field_summary("coarse", pair.coarse)
    return EXIT_OK


class _Background(threading.Thread):
    """Runs call on a thread of its own. result() joins the thread, then
    returns the call's result or re-raises the error it raised."""

    def __init__(self, call):
        super().__init__()
        self._call, self._result, self._error = call, None, None
        self.start()

    def run(self):
        try:
            self._result = self._call()
        except BaseException as exc:  # handed to the joining thread
            self._error = exc

    def result(self):
        self.join()
        if self._error is not None:
            raise self._error
        return self._result


def _timed(func, *args, **kwargs):
    t0 = time.perf_counter()
    return func(*args, **kwargs), time.perf_counter() - t0


def _reference_verdict(coarse, r_eff):
    """(cell, degenerate) of the flux reference: the coarse cell dims its per-cell
    r_eff was taken over, and whether every r_eff is 0. A degenerate reference
    gets a warning, which advises larger cells unless the grid is constant: its
    r_eff is 0 at any size."""
    cell = [coarse.height // r_eff.shape[0], coarse.width // r_eff.shape[1]]
    degenerate = not r_eff.any()
    if degenerate:
        advice = "" if np.ptp(coarse.values) == 0 else "; pass --cell CHxCW with larger cells"
        print(f"warning: every coarse {cell[0]}x{cell[1]} cell has r_eff = 0, so L_flux "
              f"ignores the coarse grid{advice}", file=sys.stderr)
    return cell, degenerate


def cmd_metrics(args):
    """After loading, the flux loss (which pairs the grids itself) runs on a
    thread of its own beside the pixel metrics, the pairing and then the
    spectra; the input hashes run last, on the main thread. The stages report
    as the serial order would: load, pixel metrics, pairing, flux, the warning,
    spectra, hashes. The earliest failing stage's error wins."""
    (pred, truth, coarse), t_load = _timed(_load_grids, args.pred, args.truth, args.coarse)
    background = _Background(
        lambda: _timed(lambda: pde_loss(GridPair.from_grids(coarse, pred), pred, eps=args.eps,
                                        cell_override=args.cell, ratio_eps=args.ratio_eps,
                                        anomaly=args.anomaly)))
    try:
        report, t_metrics = _timed(metric_report, pred, truth)
        pair = GridPair.from_grids(coarse, pred)
    except BaseException:
        background.join()
        raise
    # the spectra allocate only once truth is freed, so that their arrays take
    # its memory and the peak stays that of the serial command
    del truth
    try:
        (prof_pred, prof_ref), t_spec = _timed(ralsd_upsampled_pair, pair, args.fit_lo,
                                               args.fit_hi, args.window)
    finally:  # a flux error, the earlier stage's, replaces a spectral one
        flux, t_flux = background.result()
        cell, degenerate = _reference_verdict(coarse, flux.coarse_report.r_eff)
    inputs, t_hash = _timed(_input_hashes, args)

    report.l_flux, report.l_spec = flux.loss, abs(prof_pred.alpha - prof_ref.alpha)
    r_f = flux.fine_report.r_eff
    doc = {
        "tool_version": __version__,
        "inputs": inputs,
        "metrics": vars(report),
        "flux": {"l_flux": flux.loss, "n_cells": flux.n_cells, "cell": cell,
                 "reference_degenerate": degenerate,
                 "r_eff_fine": {"min": float(r_f.min()), "max": float(r_f.max()),
                                "mean": float(r_f.mean())}},
        "spectral": {"alpha_pred": prof_pred.alpha, "alpha_ref": prof_ref.alpha,
                     "l_spec": report.l_spec,
                     "fit_range": [prof_pred.fit_lo, prof_pred.fit_hi]},
        "timing": {"load_s": t_load, "hash_s": t_hash, "metrics_s": t_metrics,
                   "flux_s": t_flux, "spectral_s": t_spec},
    }
    for label, key in (("RMSE", "rmse"), ("R2", "r2"), ("PCC", "pcc"), ("Bias", "bias"),
                       ("L_flux", "l_flux"), ("L_spec", "l_spec")):
        print(f"{label:<7}{doc['metrics'][key]:.6g}")
    if args.out:
        import json
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _write_trace_csv(trace, path):
    rows = np.column_stack([np.arange(len(trace.objective)), trace.objective,
                            trace.fidelity, trace.pde])
    with open(path, "w") as fh:  # a handle: given a path, savetxt imports gzip
        np.savetxt(fh, rows, fmt=("%d", "%.17g", "%.17g", "%.17g"), delimiter=",",
                   header="iter,objective,fidelity,pde", comments="")


def cmd_refine(args):
    init = _load_grid(args.init)
    coarse = _load_grid(args.coarse)
    cfg = RefineConfig(lambda_pde=args.lam, step_size=args.step,
                       max_iters=args.iters, grad_mode=args.grad_mode,
                       fd_h=args.fd_h, tol=args.tol, eps=args.eps,
                       cell_override=args.cell)
    try:
        trace = refine(init, coarse, cfg)
    except ConvergenceStallError as exc:
        _reference_verdict(coarse, exc.trace.coarse_report.r_eff)
        if args.trace:
            _write_trace_csv(exc.trace, args.trace)
        raise
    _reference_verdict(coarse, trace.coarse_report.r_eff)
    write_fgrd(trace.final_field, args.out)
    if args.trace:
        _write_trace_csv(trace, args.trace)
    print(f"initial: objective={trace.objective[0]:.6g} "
          f"fidelity={trace.fidelity[0]:.6g} pde={trace.pde[0]:.6g}")
    print(f"final:   objective={trace.objective[-1]:.6g} "
          f"fidelity={trace.fidelity[-1]:.6g} pde={trace.pde[-1]:.6g} "
          f"iters={trace.iters_run}")
    return EXIT_OK


def cmd_ralsd(args):
    grid = _load_grid(args.grid)
    profile = ralsd(grid, args.fit_lo, args.fit_hi, args.window)
    if args.out_profile:
        with open(args.out_profile, "w") as fh:
            np.savetxt(fh, np.column_stack([profile.k_bins, profile.psi]), fmt="%.17g")
    print(f"alpha={profile.alpha:.6g} fit_bins=[{profile.fit_lo},{profile.fit_hi}]")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fluxgrid",
        description="Gridded-field metrics, flux-ratio loss, spectra, and refinement.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic fields")
    synth_sub = p_synth.add_subparsers(dest="mode", required=True)

    def add_synth_common(sp):
        sp.add_argument("--scale", type=int, default=1)
        sp.add_argument("--dx", type=float, default=1.0)
        sp.add_argument("--dy", type=float, default=1.0)
        sp.add_argument("--out-fine", required=True)
        sp.add_argument("--out-coarse")
        sp.set_defaults(func=cmd_synth)

    def add_dims(sp):
        sp.add_argument("--h", type=int, required=True)
        sp.add_argument("--w", type=int, required=True)

    def add_fit(sp):
        sp.add_argument("--fit-lo", type=int, default=None)
        sp.add_argument("--fit-hi", type=int, default=None)
        sp.add_argument("--window", action="store_true")

    p_grf = synth_sub.add_parser("grf", help="power-law Gaussian random field")
    add_dims(p_grf)
    p_grf.add_argument("--seed", type=int, default=0)
    p_grf.add_argument("--slope", type=float, required=True)
    p_grf.add_argument("--amplitude", type=float, default=1.0)
    add_synth_common(p_grf)

    p_aff = synth_sub.add_parser("affine", help="a*x + b*y + c at cell centers")
    add_dims(p_aff)
    p_aff.add_argument("--a", type=float, default=0.0)
    p_aff.add_argument("--b", type=float, default=0.0)
    p_aff.add_argument("--c", type=float, default=0.0)
    add_synth_common(p_aff)

    p_adv = synth_sub.add_parser("advdiff", help="periodic advection-diffusion run")
    for key, flag, cast, _ in ADVDIFF_KEYS:
        p_adv.add_argument(flag, dest=key, type=cast)
    p_adv.add_argument("--config", help="key = value scenario file")
    add_synth_common(p_adv)

    p_met = sub.add_parser("metrics", help="statistical and physics-aware metrics")
    p_met.add_argument("pred")
    p_met.add_argument("truth")
    p_met.add_argument("coarse")
    p_met.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p_met.add_argument("--ratio-eps", type=float, default=None)
    p_met.add_argument("--anomaly", action="store_true",
                       help="remove the per-cell boundary mean of T first")
    p_met.add_argument("--cell", type=_parse_cell, default=None,
                       help="supergrid cell dims CHxCW (default: gcd rule)")
    add_fit(p_met)
    p_met.add_argument("--out", help="write the JSON report here")
    p_met.set_defaults(func=cmd_metrics)

    p_ref = sub.add_parser("refine", help="gradient-descent field refinement")
    p_ref.add_argument("init")
    p_ref.add_argument("coarse")
    p_ref.add_argument("--out", required=True)
    p_ref.add_argument("--trace", help="write iteration trace CSV here")
    p_ref.add_argument("--lam", type=float, default=1.0)
    p_ref.add_argument("--iters", type=int, default=50)
    p_ref.add_argument("--step", type=float, default=1.0)
    p_ref.add_argument("--grad-mode", choices=("analytic", "numeric_central"),
                       default="analytic")
    p_ref.add_argument("--fd-h", type=float, default=1e-5)
    p_ref.add_argument("--tol", type=float, default=1e-8)
    p_ref.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p_ref.add_argument("--cell", type=_parse_cell, default=None)
    p_ref.set_defaults(func=cmd_refine)

    p_ral = sub.add_parser("ralsd", help="radial spectrum profile and slope")
    p_ral.add_argument("grid")
    add_fit(p_ral)
    p_ral.add_argument("--out-profile")
    p_ral.set_defaults(func=cmd_ralsd)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = next((code for types, code in ERROR_EXITS if isinstance(exc, types)), None)
        if code is None:
            raise
        message = f"file not found: {exc.filename}" if isinstance(exc, FileNotFoundError) else exc
        print(f"error: {message}", file=sys.stderr)
        return code


def entry():
    """The program's entry, for `python -m fluxgrid.cli` and the console script:
    main with the import-time heap frozen, so that no collection, the ones at
    exit included, walks it again. main itself never freezes."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
