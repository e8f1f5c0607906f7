"""Each axis takes its own path through the flux kernel and its adjoint: row
lines through a band's reshape, column lines through a slab with a halo row
either side, and the adjoint adds rows into the gradient and columns into its
transpose. These tests pin the two paths against each other. Transposing a
field, swapping dx and dy and swapping the cell dims must transpose every
per-cell flux and the adjoint; a mirror must mirror them and keep the loss.
Transposing or mirroring reorders the sums, so nothing here is bitwise."""

import json

import numpy as np
import pytest

from fluxgrid import (Grid2D, GridPair, RefineConfig, build_partition, cell_fluxes,
                      coarsen_block_mean, make_pair, pde_loss, refine, write_fgrd)
from fluxgrid import grid_core
from fluxgrid.cli import main
from fluxgrid.supergrid import FluxRatioLoss

RTOL = 1e-12

# (fine shape, scales, coarse cell dims, dx, dy): odd and non-square sizes,
# fine cells of 15x14, 1x1, 6x3, 3x3 and 1x4 pixels
CASES = [((45, 28), (3, 2), (5, 7), 0.7, 1.3),
         ((21, 35), (1, 1), (1, 1), 1.0, 2.0),
         ((30, 18), (2, 3), (3, 1), 0.6, 1.7),
         ((27, 33), (3, 3), (1, 1), 1.0, 2.0),
         ((20, 36), (1, 2), (1, 2), 1.3, 0.7)]


def transposed(g):
    return Grid2D.from_values(g.values.T.copy(), g.dy, g.dx)


def mirrored(g, axis):
    return g.with_values(np.flip(g.values, axis).copy())


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * np.abs(want).max())


def fields(shape, dx, dy, seed):
    """Two random fields of one geometry."""
    rng = np.random.default_rng(seed)
    return [Grid2D.from_values(rng.normal(size=shape) + 2.0, dx, dy) for _ in range(2)]


def scored_pair(case, seed=0):
    shape, scales, cell, dx, dy = case
    fine, other = fields(shape, dx, dy, seed)
    return GridPair(make_pair(other, *scales).coarse, fine, *scales), cell


def transposed_pair(pair):
    return GridPair(transposed(pair.coarse), transposed(pair.fine), pair.scale_x,
                    pair.scale_y)


def flux_arrays(rep):
    return rep.phi_adv, rep.phi_diff, rep.r_eff


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("anomaly", [False, True])
@pytest.mark.parametrize("one_row_bands", [False, True])
def test_cell_fluxes_transpose(monkeypatch, case, anomaly, one_row_bands):
    shape, scales, cell, dx, dy = case
    fine = fields(shape, dx, dy, 1)[0]
    cell_h, cell_w = cell[0] * scales[0], cell[1] * scales[1]
    if one_row_bands:
        monkeypatch.setattr(grid_core, "BLOCK_ELEMS", 1)
    rep = cell_fluxes(fine, build_partition(fine, cell_h, cell_w), anomaly=anomaly)
    fine_t = transposed(fine)
    rep_t = cell_fluxes(fine_t, build_partition(fine_t, cell_w, cell_h), anomaly=anomaly)
    for got, want in zip(flux_arrays(rep_t), flux_arrays(rep)):
        assert_close(got, want.T)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("axis", [1, 0])  # left-right, then up-down
@pytest.mark.parametrize("anomaly", [False, True])
def test_cell_fluxes_mirror(case, axis, anomaly):
    shape, scales, cell, dx, dy = case
    fine = fields(shape, dx, dy, 2)[0]
    part = build_partition(fine, cell[0] * scales[0], cell[1] * scales[1])
    rep = cell_fluxes(fine, part, anomaly=anomaly)
    rep_m = cell_fluxes(mirrored(fine, axis), part, anomaly=anomaly)
    for got, want in zip(flux_arrays(rep_m), flux_arrays(rep)):
        assert_close(got, np.flip(want, axis))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("anomaly", [False, True])
def test_pde_loss_transpose_and_mirror(case, anomaly):
    pair, cell = scored_pair(case, 3)
    want = pde_loss(pair, pair.fine, cell_override=cell, anomaly=anomaly)
    got = pde_loss(transposed_pair(pair), transposed(pair.fine), cell_override=cell[::-1],
                   anomaly=anomaly)
    assert got.loss == pytest.approx(want.loss, rel=RTOL)
    assert_close(got.per_cell_sq_diff, want.per_cell_sq_diff.T)
    for axis in (1, 0):
        pair_m = GridPair(mirrored(pair.coarse, axis), mirrored(pair.fine, axis),
                          pair.scale_y, pair.scale_x)
        got = pde_loss(pair_m, pair_m.fine, cell_override=cell, anomaly=anomaly)
        assert got.loss == pytest.approx(want.loss, rel=RTOL)
        assert_close(got.per_cell_sq_diff, np.flip(want.per_cell_sq_diff, axis))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("one_row_bands", [False, True])
def test_adjoint_transpose_and_mirror(monkeypatch, case, one_row_bands):
    pair, cell = scored_pair(case, 4)
    if one_row_bands:
        monkeypatch.setattr(grid_core, "BLOCK_ELEMS", 1)
    loss = FluxRatioLoss(pair, cell_override=cell)
    want = loss.forward(pair.fine).loss
    grad = loss.adjoint()
    pair_t = transposed_pair(pair)
    loss_t = FluxRatioLoss(pair_t, cell_override=cell[::-1])
    assert loss_t.forward(pair_t.fine).loss == pytest.approx(want, rel=RTOL)
    assert_close(loss_t.adjoint(), grad.T)
    for axis in (1, 0):
        pair_m = GridPair(mirrored(pair.coarse, axis), mirrored(pair.fine, axis),
                          pair.scale_y, pair.scale_x)
        loss_m = FluxRatioLoss(pair_m, cell_override=cell)
        assert loss_m.forward(pair_m.fine).loss == pytest.approx(want, rel=RTOL)
        assert_close(loss_m.adjoint(), np.flip(grad, axis))


def _leaves(report, prefix=""):
    """The report's values by path, less its timings and its inputs' paths and
    hashes, which differ between two files by construction."""
    if isinstance(report, dict):
        return {k: v for key, value in report.items() if key not in ("timing", "inputs")
                for k, v in _leaves(value, f"{prefix}{key}.").items()}
    return {prefix[:-1]: report}


# large enough for four bins in the default fit range: 1x1 coarse cells (whose
# reference is degenerate) and unequal ones
@pytest.mark.parametrize("case", [CASES[0], ((66, 50), (2, 2), (1, 1), 1.0, 2.0),
                                  ((99, 70), (3, 2), (3, 5), 0.6, 1.7)])
@pytest.mark.parametrize("flags", [[], ["--anomaly"], ["--window"]])
def test_metrics_report_transpose(tmp_path, case, flags):
    shape, scales, cell, dx, dy = case
    truth, noise = fields(shape, dx, dy, 5)
    pred = truth.with_values(truth.values + 0.1 * noise.values + 0.05)
    grids = {"pred": pred, "truth": truth, "coarse": coarsen_block_mean(truth, *scales)}
    reports = []
    for name, transform, (cell_h, cell_w) in (("plain", lambda g: g, cell),
                                              ("transposed", transposed, cell[::-1])):
        paths = [tmp_path / f"{key}_{name}.fgrd" for key in grids]
        for path, g in zip(paths, grids.values()):
            write_fgrd(transform(g), path)
        out = tmp_path / f"{name}.json"
        assert main(["metrics", *map(str, paths), "--cell", f"{cell_h}x{cell_w}", *flags,
                     "--out", str(out)]) == 0
        reports.append(_leaves(json.loads(out.read_text())))
    want, got = reports
    assert got.pop("flux.cell") == want.pop("flux.cell")[::-1]
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=RTOL), key


@pytest.mark.parametrize("case", [CASES[0], CASES[1], CASES[2]])
def test_refine_transpose(case):
    pair, cell = scored_pair(case, 6)
    cfg = RefineConfig(max_iters=4, cell_override=cell)
    trace = refine(pair.fine, pair.coarse, cfg)
    pair_t = transposed_pair(pair)
    trace_t = refine(pair_t.fine, pair_t.coarse, RefineConfig(max_iters=4,
                                                              cell_override=cell[::-1]))
    assert trace_t.iters_run == trace.iters_run
    for name in ("objective", "fidelity", "pde"):
        assert_close(getattr(trace_t, name), getattr(trace, name))
    assert trace_t.lambda_used == pytest.approx(trace.lambda_used, rel=RTOL)
    assert_close(trace_t.final_field.values, trace.final_field.values.T)
    assert (trace_t.final_field.dx, trace_t.final_field.dy) == (trace.final_field.dy,
                                                                trace.final_field.dx)
