"""Command-line surface: synth / metrics / refine / ralsd.

Exit codes: 0 success, 1 I/O, 2 usage, 3 dimension mismatch,
4 degenerate math, 5 optimizer stall.
"""

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .errors import (ConvergenceStallError, CsvParseError,
                     DegenerateSpectrumError, DegenerateVarianceError,
                     DimensionMismatchError, FormatError, StabilityError,
                     TooSmallGridError)
from .findiff import DEFAULT_EPS
from .formats import read_csv, read_fgrd, write_fgrd
from .grid_core import Grid2D, GridPair, upsample_quadratic
from .metrics import metric_report
from .refine import RefineConfig, refine
from .spectral import ralsd
from .supergrid import pde_loss
from .synth import AdvDiffSpec, GrfSpec, gen_affine, gen_grf, step_advdiff

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DIMS = 3
EXIT_DEGENERATE = 4
EXIT_STALL = 5


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_grid(path):
    if str(path).endswith(".csv"):
        return read_csv(path)
    return read_fgrd(path)


def _pair(coarse, coarse_path, fine):
    """GridPair of coarse and fine. CSV stores no spacing, so a coarse grid
    read from CSV takes the fine grid's spacing times the scales."""
    pair = GridPair.from_grids(coarse, fine)
    if str(coarse_path).endswith(".csv"):
        pair.coarse = Grid2D(coarse.height, coarse.width, fine.dx * pair.scale_x,
                             fine.dy * pair.scale_y, coarse.values)
    return pair


def _parse_cell(text):
    try:
        ch, cw = text.lower().split("x")
        ch, cw = int(ch), int(cw)
    except ValueError:
        raise ValueError(f"--cell expects CHxCW (e.g. 3x2), got {text!r}") from None
    if ch < 1 or cw < 1:
        raise ValueError(f"--cell dims must be positive, got {text!r}")
    return ch, cw


def _read_config(path):
    """key = value lines; blank lines and #-comments ignored."""
    conf = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            conf[key] = value
    return conf


def _print_field_summary(label, grid):
    print(f"{label}: {grid.height}x{grid.width} dx={grid.dx:g} dy={grid.dy:g} "
          f"mean={grid.values.mean():.6g} std={grid.values.std():.6g}")


def cmd_synth(args):
    scale = args.scale
    if args.mode == "grf":
        spec = GrfSpec(args.height, args.width, args.slope, args.seed, args.amplitude)
        fine = gen_grf(spec, args.dx, args.dy)
    elif args.mode == "affine":
        fine = gen_affine(args.height, args.width, args.a, args.b, args.c,
                          args.dx, args.dy)
    else:  # advdiff
        conf = _read_config(args.config) if args.config else {}

        def pick(flag, key, cast, default):
            if flag is not None:
                return flag
            if key in conf:
                return cast(conf[key])
            return default

        h = pick(args.height_opt, "h", int, 64)
        w = pick(args.width_opt, "w", int, 64)
        seed = pick(args.seed_opt, "seed", int, 0)
        init_slope = pick(args.init_slope, "init_slope", float, -2.5)
        initial = gen_grf(GrfSpec(h, w, init_slope, seed), args.dx, args.dy)
        spec = AdvDiffSpec(
            u_x=pick(args.ux, "ux", float, 0.0),
            u_y=pick(args.uy, "uy", float, 0.0),
            diffusivity=pick(args.diffusivity, "diffusivity", float, 0.0),
            dt=pick(args.dt, "dt", float, 0.1),
            steps=pick(args.steps, "steps", int, 0),
            initial=initial,
        )
        fine = step_advdiff(spec)

    if fine.height % scale != 0 or fine.width % scale != 0:
        raise DimensionMismatchError(
            f"scale {scale} does not divide dims {fine.height}x{fine.width}")
    from .grid_core import make_pair
    pair = make_pair(fine, scale, scale)
    write_fgrd(pair.fine, args.out_fine)
    _print_field_summary("fine", pair.fine)
    if args.out_coarse:
        write_fgrd(pair.coarse, args.out_coarse)
        _print_field_summary("coarse", pair.coarse)
    return EXIT_OK


def cmd_metrics(args):
    t0 = time.perf_counter()
    pred = _load_grid(args.pred)
    truth = _load_grid(args.truth)
    coarse = _load_grid(args.coarse)
    t_load = time.perf_counter() - t0

    t1 = time.perf_counter()
    report = metric_report(pred, truth)
    t_metrics = time.perf_counter() - t1
    pair = _pair(coarse, args.coarse, pred)

    t2 = time.perf_counter()
    flux = pde_loss(pair, pred, eps=args.eps, cell_override=args.cell,
                    ratio_eps=args.ratio_eps, anomaly=args.anomaly)
    t_flux = time.perf_counter() - t2
    r_c = flux.coarse_report.r_eff
    cell = [coarse.height // r_c.shape[0], coarse.width // r_c.shape[1]]
    degenerate = bool(np.all(r_c == 0.0))
    if degenerate:
        print(f"warning: every coarse {cell[0]}x{cell[1]} cell has r_eff = 0, so L_flux "
              "ignores the coarse grid; pass --cell CHxCW with larger cells", file=sys.stderr)

    t3 = time.perf_counter()
    ref = upsample_quadratic(pair.coarse, pair.scale_y, pair.scale_x)
    prof_pred = ralsd(pred, args.fit_lo, args.fit_hi, args.window)
    prof_ref = ralsd(ref, prof_pred.fit_lo, prof_pred.fit_hi, args.window)
    l_spec = abs(prof_pred.alpha - prof_ref.alpha)
    t_spec = time.perf_counter() - t3

    report.l_flux = flux.loss
    report.l_spec = l_spec
    r_f = flux.fine_report.r_eff

    t4 = time.perf_counter()
    inputs = {name: {"path": path, "sha256": _sha256(path)}
              for name, path in (("pred", args.pred), ("truth", args.truth),
                                 ("coarse", args.coarse))}
    t_hash = time.perf_counter() - t4
    doc = {
        "tool_version": __version__,
        "inputs": inputs,
        "metrics": {"rmse": report.rmse, "r2": report.r2, "pcc": report.pcc,
                    "bias": report.bias, "n": report.n,
                    "l_flux": report.l_flux, "l_spec": report.l_spec},
        "flux": {"l_flux": flux.loss, "n_cells": flux.n_cells, "cell": cell,
                 "reference_degenerate": degenerate,
                 "r_eff_fine": {"min": float(r_f.min()), "max": float(r_f.max()),
                                "mean": float(r_f.mean())}},
        "spectral": {"alpha_pred": prof_pred.alpha, "alpha_ref": prof_ref.alpha,
                     "l_spec": l_spec,
                     "fit_range": [prof_pred.fit_lo, prof_pred.fit_hi]},
        "timing": {"load_s": t_load, "hash_s": t_hash, "metrics_s": t_metrics,
                   "flux_s": t_flux, "spectral_s": t_spec},
    }
    print(f"RMSE   {report.rmse:.6g}")
    print(f"R2     {report.r2:.6g}")
    print(f"PCC    {report.pcc:.6g}")
    print(f"Bias   {report.bias:.6g}")
    print(f"L_flux {report.l_flux:.6g}")
    print(f"L_spec {report.l_spec:.6g}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _write_trace_csv(trace, path):
    with open(path, "w") as fh:
        fh.write("iter,objective,fidelity,pde\n")
        for k, (obj, fid, pde) in enumerate(
                zip(trace.objective, trace.fidelity, trace.pde)):
            fh.write(f"{k},{obj:.17g},{fid:.17g},{pde:.17g}\n")


def cmd_refine(args):
    init = _load_grid(args.init)
    coarse = _load_grid(args.coarse)
    cfg = RefineConfig(lambda_pde=args.lam, step_size=args.step,
                       max_iters=args.iters, grad_mode=args.grad_mode,
                       fd_h=args.fd_h, tol=args.tol, eps=args.eps,
                       cell_override=args.cell)
    try:
        trace = refine(init, _pair(coarse, args.coarse, init).coarse, cfg)
    except ConvergenceStallError as exc:
        if args.trace and exc.trace is not None:
            _write_trace_csv(exc.trace, args.trace)
        raise
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
            for k, psi in zip(profile.k_bins, profile.psi):
                fh.write(f"{k:.17g} {psi:.17g}\n")
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

    p_grf = synth_sub.add_parser("grf", help="power-law Gaussian random field")
    p_grf.add_argument("--h", dest="height", type=int, required=True)
    p_grf.add_argument("--w", dest="width", type=int, required=True)
    p_grf.add_argument("--seed", type=int, default=0)
    p_grf.add_argument("--slope", type=float, required=True)
    p_grf.add_argument("--amplitude", type=float, default=1.0)
    add_synth_common(p_grf)

    p_aff = synth_sub.add_parser("affine", help="a*x + b*y + c at cell centers")
    p_aff.add_argument("--h", dest="height", type=int, required=True)
    p_aff.add_argument("--w", dest="width", type=int, required=True)
    p_aff.add_argument("--a", type=float, default=0.0)
    p_aff.add_argument("--b", type=float, default=0.0)
    p_aff.add_argument("--c", type=float, default=0.0)
    add_synth_common(p_aff)

    p_adv = synth_sub.add_parser("advdiff", help="periodic advection-diffusion run")
    p_adv.add_argument("--h", dest="height_opt", type=int)
    p_adv.add_argument("--w", dest="width_opt", type=int)
    p_adv.add_argument("--seed", dest="seed_opt", type=int)
    p_adv.add_argument("--init-slope", dest="init_slope", type=float)
    p_adv.add_argument("--ux", type=float)
    p_adv.add_argument("--uy", type=float)
    p_adv.add_argument("--D", dest="diffusivity", type=float)
    p_adv.add_argument("--dt", type=float)
    p_adv.add_argument("--steps", type=int)
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
    p_met.add_argument("--fit-lo", type=int, default=None)
    p_met.add_argument("--fit-hi", type=int, default=None)
    p_met.add_argument("--window", action="store_true")
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
    p_ral.add_argument("--fit-lo", type=int, default=None)
    p_ral.add_argument("--fit-hi", type=int, default=None)
    p_ral.add_argument("--window", action="store_true")
    p_ral.add_argument("--out-profile")
    p_ral.set_defaults(func=cmd_ralsd)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, CsvParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DimensionMismatchError, TooSmallGridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMS
    except (DegenerateVarianceError, DegenerateSpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ConvergenceStallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALL
    except (ValueError, StabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
