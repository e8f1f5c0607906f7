import ast
import gc
import io
import json
import os
import pickle
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import fluxgrid
from fluxgrid import (ConvergenceStallError, Grid2D, GridPair, GrfSpec, RefineConfig,
                      coarsen_block_mean, gen_grf, metric_report, pde_loss, ralsd, read_csv,
                      read_fgrd, refine, upsample_quadratic, write_csv, write_fgrd)
from fluxgrid import cli
from fluxgrid.cli import main


def write_pair(tmp_path, seed=0, h=32, w=32, scale=2, slope=-2.5):
    fine = gen_grf(GrfSpec(h, w, slope, seed))
    coarse = coarsen_block_mean(fine, scale, scale)
    fp = tmp_path / "fine.fgrd"
    cp = tmp_path / "coarse.fgrd"
    write_fgrd(fine, fp)
    write_fgrd(coarse, cp)
    return fp, cp


def trace_text(trace):
    """The CSV that refine --trace writes for a RefineTrace."""
    rows = [f"{k},{obj:.17g},{fid:.17g},{pde:.17g}"
            for k, (obj, fid, pde) in enumerate(zip(trace.objective, trace.fidelity, trace.pde))]
    return "\n".join(["iter,objective,fidelity,pde", *rows]) + "\n"


class TestSynth:
    def test_grf_writes_both_grids(self, tmp_path):
        out_f = tmp_path / "f.fgrd"
        out_c = tmp_path / "c.fgrd"
        code = main(["synth", "grf", "--h", "32", "--w", "32", "--slope", "-2.5",
                     "--seed", "3", "--scale", "2",
                     "--out-fine", str(out_f), "--out-coarse", str(out_c)])
        assert code == 0
        fine = read_fgrd(out_f)
        coarse = read_fgrd(out_c)
        assert (fine.height, fine.width) == (32, 32)
        assert (coarse.height, coarse.width) == (16, 16)
        assert (coarse.dx, coarse.dy) == (2.0, 2.0)

    def test_grf_deterministic(self, tmp_path):
        a = tmp_path / "a.fgrd"
        b = tmp_path / "b.fgrd"
        for out in (a, b):
            assert main(["synth", "grf", "--h", "16", "--w", "16",
                         "--slope", "-2.0", "--seed", "9",
                         "--out-fine", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_affine(self, tmp_path):
        out = tmp_path / "aff.fgrd"
        assert main(["synth", "affine", "--h", "4", "--w", "4", "--a", "1.0",
                     "--out-fine", str(out)]) == 0
        np.testing.assert_allclose(read_fgrd(out).values[0], [0.5, 1.5, 2.5, 3.5])

    def test_advdiff_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# scenario\n"
            "h = 16\n"
            "w = 16\n"
            "seed = 4\n"
            "ux = 1.0\n"
            "dt = 1.0\n"
            "steps = 1\n")
        out = tmp_path / "adv.fgrd"
        assert main(["synth", "advdiff", "--config", str(conf),
                     "--out-fine", str(out)]) == 0
        init = gen_grf(GrfSpec(16, 16, -2.5, 4))
        # unit advective CFL is an exact cyclic shift
        expected = np.roll(init.values, 1, axis=1).astype(np.float32)
        assert np.array_equal(read_fgrd(out).values, expected.astype(float))

    def test_advdiff_flag_overrides_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("h = 16\nw = 16\nseed = 4\nsteps = 0\n")
        out_a = tmp_path / "a.fgrd"
        out_b = tmp_path / "b.fgrd"
        assert main(["synth", "advdiff", "--config", str(conf),
                     "--out-fine", str(out_a)]) == 0
        assert main(["synth", "advdiff", "--config", str(conf), "--seed", "5",
                     "--out-fine", str(out_b)]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    @pytest.mark.parametrize("text, named", [
        ("h 16\n", "config line 1: expected key = value with a key of h, w, seed, "
                   "init_slope, ux, uy, diffusivity, dt, steps, got 'h 16'"),
        # a misspelt key is not ignored: that would run pure advection
        ("h = 16\nw = 16\ndiffusivty = 0.1\n", "config line 3: expected key = value with a "
                                               "key of h, w, seed, init_slope, ux, uy, "
                                               "diffusivity, dt, steps, got 'diffusivty = 0.1'"),
        ("h = 16\n# the width\nw = abc\n", "config line 3: w = 'abc' does not parse as int"),
        ("steps = 10\ndt = 0.1.5\n", "config line 2: dt = '0.1.5' does not parse as float"),
    ], ids=["no-equals", "unknown-key", "bad-int", "bad-float"])
    def test_bad_config_line_usage_error(self, tmp_path, capsys, text, named):
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        out = tmp_path / "x.fgrd"
        assert main(["synth", "advdiff", "--config", str(conf), "--out-fine", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_beyond_f32_io_error_no_file(self, tmp_path):
        out = tmp_path / "x.fgrd"
        assert main(["synth", "grf", "--h", "16", "--w", "16", "--slope", "-2.0",
                     "--amplitude", "1e39", "--out-fine", str(out)]) == 1
        assert not out.exists()

    def test_unstable_advdiff_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.fgrd"
        assert main(["synth", "advdiff", "--h", "32", "--w", "32", "--ux", "50",
                     "--steps", "2", "--out-fine", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "advective CFL" in err
        assert not out.exists()

    def test_scale_must_divide(self, tmp_path):
        assert main(["synth", "grf", "--h", "16", "--w", "16", "--slope", "-2.0",
                     "--scale", "3",
                     "--out-fine", str(tmp_path / "x.fgrd")]) == 3

    @pytest.mark.parametrize("argv, code, named", [
        (["grf", "--h", "16", "--w", "16", "--slope", "-2", "--scale", "0"], 2,
         "scales must be >= 1, got (0, 0)"),
        (["affine", "--h", "16", "--w", "16", "--scale", "-1"], 2,
         "scales must be >= 1, got (-1, -1)"),
        (["grf", "--h", "16", "--w", "18", "--slope", "-2", "--scale", "4"], 3,
         "scale_x=4 does not divide width=18"),
        (["advdiff", "--steps", "3000", "--scale", "0"], 2, "scales must be >= 1, got (0, 0)"),
        (["advdiff", "--steps", "3000", "--scale", "4", "--config", "{conf}"], 3,
         "scale_y=4 does not divide height=30"),
    ])
    def test_scale_checked_before_the_field_is_built(self, tmp_path, monkeypatch, capsys,
                                                     argv, code, named):
        def never(*args, **kwargs):
            raise AssertionError("the field was built before --scale was checked")

        for name in ("gen_grf", "gen_affine", "step_advdiff"):
            monkeypatch.setattr(cli, name, never)
        conf = tmp_path / "run.conf"
        conf.write_text("h = 30\nw = 32\n")
        out = tmp_path / "x.fgrd"
        argv = [arg.format(conf=conf) for arg in argv]
        assert main(["synth", *argv, "--out-fine", str(out)]) == code
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()


class TestMetrics:
    def test_report_and_exit_zero(self, tmp_path, capsys):
        fp, cp = write_pair(tmp_path)
        out = tmp_path / "report.json"
        code = main(["metrics", str(fp), str(fp), str(cp), "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "RMSE   0" in text
        doc = json.loads(out.read_text())
        assert doc["metrics"]["rmse"] == 0.0
        assert doc["metrics"]["pcc"] == pytest.approx(1.0)
        assert set(doc) == {"tool_version", "inputs", "metrics", "flux",
                            "spectral", "timing"}
        assert len(doc["inputs"]["pred"]["sha256"]) == 64

    def test_timing_keys_finite_nonnegative(self, tmp_path):
        fp, cp = write_pair(tmp_path)
        out = tmp_path / "report.json"
        assert main(["metrics", str(fp), str(fp), str(cp), "--out", str(out)]) == 0
        timing = json.loads(out.read_text())["timing"]
        assert set(timing) == {"load_s", "hash_s", "metrics_s", "flux_s", "spectral_s"}
        for seconds in timing.values():
            assert np.isfinite(seconds) and seconds >= 0.0

    def test_deterministic_excluding_timing(self, tmp_path):
        fp, cp = write_pair(tmp_path, seed=2)
        docs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["metrics", str(fp), str(fp), str(cp),
                         "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            doc.pop("timing")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_missing_file_io_error(self, tmp_path):
        fp, cp = write_pair(tmp_path)
        assert main(["metrics", str(tmp_path / "nope.fgrd"), str(fp), str(cp)]) == 1

    def test_corrupt_file_io_error(self, tmp_path):
        fp, cp = write_pair(tmp_path)
        bad = tmp_path / "bad.fgrd"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["metrics", str(bad), str(fp), str(cp)]) == 1

    def test_nan_spacing_io_error(self, tmp_path, capsys):
        fp, cp = write_pair(tmp_path)
        bad = tmp_path / "nan_dx.fgrd"
        data = bytearray(fp.read_bytes())
        data[14:22] = struct.pack("<d", float("nan"))
        bad.write_bytes(bytes(data))
        assert main(["metrics", str(bad), str(fp), str(cp)]) == 1
        assert "byte 14" in capsys.readouterr().err

    def test_nan_payload_io_error(self, tmp_path, capsys):
        fp, cp = write_pair(tmp_path)
        bad = tmp_path / "nan.fgrd"
        data = bytearray(fp.read_bytes())
        data[30 + 4 * 7:30 + 4 * 8] = struct.pack("<f", float("nan"))
        bad.write_bytes(bytes(data))
        assert main(["metrics", str(bad), str(fp), str(cp)]) == 1
        assert "byte 58" in capsys.readouterr().err

    def test_zero_height_io_error(self, tmp_path, capsys):
        fp, cp = write_pair(tmp_path)
        bad = tmp_path / "empty.fgrd"
        bad.write_bytes(struct.pack("<4sHIIdd", b"FGRD", 1, 0, 32, 1.0, 1.0))
        assert main(["metrics", str(bad), str(fp), str(cp)]) == 1
        assert "byte 6" in capsys.readouterr().err

    def test_nan_csv_cell_io_error(self, tmp_path, capsys):
        fp, cp = write_pair(tmp_path)
        bad = tmp_path / "nan.csv"
        rows = [",".join(["1.0"] * 32) for _ in range(32)]
        rows[4] = "nan," + ",".join(["1.0"] * 31)
        bad.write_text("\n".join(rows) + "\n")
        assert main(["metrics", str(bad), str(fp), str(cp)]) == 1
        assert "row 5, column 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cell_args, cell, degenerate", [
        ([], [1, 1], True),  # the README example: gcd cells of a square coarse grid
        (["--cell", "4x4"], [4, 4], False),
    ])
    def test_reference_degenerate_flag(self, tmp_path, capsys, cell_args, cell, degenerate):
        fp, cp = write_pair(tmp_path, h=128, w=128)
        out = tmp_path / "report.json"
        assert main(["metrics", str(fp), str(fp), str(cp), "--out", str(out), *cell_args]) == 0
        flux = json.loads(out.read_text())["flux"]
        assert flux["cell"] == cell
        assert flux["reference_degenerate"] is degenerate
        assert flux["n_cells"] == (64 // cell[0]) * (64 // cell[1])
        err = capsys.readouterr().err
        assert err.count("warning:") == (1 if degenerate else 0)
        assert ("--cell" in err) is degenerate

    def test_csv_coarse_takes_the_fine_spacing(self, tmp_path):
        # CSV stores no spacing: the coarse grid must be read at 4x the
        # fine spacing, as the FGRD coarse grid is, not at spacing 1. So must
        # an FGRD coarse grid whose header says spacing 1
        assert main(["synth", "grf", "--h", "64", "--w", "64", "--slope", "-2.5",
                     "--scale", "4", "--out-fine", str(tmp_path / "f.fgrd"),
                     "--out-coarse", str(tmp_path / "c.fgrd")]) == 0
        coarse = read_fgrd(tmp_path / "c.fgrd")
        write_fgrd(Grid2D(16, 16, 1.0, 1.0, coarse.values), tmp_path / "unit.fgrd")
        l_flux = {}
        for ext in ("fgrd", "csv"):
            paths = []
            for name in ("f", "c"):
                path = tmp_path / f"{name}.{ext}"
                if ext == "csv":
                    write_csv(read_fgrd(tmp_path / f"{name}.fgrd"), path)
                paths.append(str(path))
            out = tmp_path / f"{ext}.json"
            assert main(["metrics", paths[0], paths[0], paths[1], "--cell", "4x4",
                         "--out", str(out)]) == 0
            l_flux[ext] = json.loads(out.read_text())["metrics"]["l_flux"]
        out = tmp_path / "unit.json"
        assert main(["metrics", str(tmp_path / "f.fgrd"), str(tmp_path / "f.fgrd"),
                     str(tmp_path / "unit.fgrd"), "--cell", "4x4", "--out", str(out)]) == 0
        l_flux["unit"] = json.loads(out.read_text())["metrics"]["l_flux"]
        assert l_flux["fgrd"] > 1.0
        assert l_flux["csv"] == l_flux["fgrd"]
        assert l_flux["unit"] == l_flux["fgrd"]

    def test_dim_mismatch_exit_3(self, tmp_path):
        fp, _ = write_pair(tmp_path)
        odd = tmp_path / "odd.fgrd"
        write_fgrd(gen_grf(GrfSpec(24, 24, -2.0, 0)), odd)
        assert main(["metrics", str(fp), str(fp), str(odd)]) == 3

    def test_constant_truth_exit_4(self, tmp_path):
        fp, cp = write_pair(tmp_path)
        const = tmp_path / "const.csv"
        const.write_text("\n".join(",".join(["1.0"] * 32) for _ in range(32)) + "\n")
        assert main(["metrics", str(fp), str(const), str(cp)]) == 4

    def test_constant_coarse_names_the_ref_grid(self, tmp_path, capsys):
        # the coarse grid's values are checked, as the prediction's are: the
        # upsampled field's rounding noise had power off DC at scales 3 and 5,
        # where metrics once fitted L_spec to that noise
        const = tmp_path / "const.fgrd"
        for scale in (3, 4, 5):
            fp, _ = write_pair(tmp_path, h=16 * scale, w=16 * scale)
            for value in (2.5, 7.0, 288.15):
                write_fgrd(Grid2D(16, 16, scale, scale, np.full((16, 16), value)), const)
                code = main(["metrics", str(fp), str(fp), str(const), "--cell", "4x4"])
                assert (code, scale, value) == (4, scale, value)
                assert "ref grid: zero power" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [False, True])
    @pytest.mark.parametrize("h, w, scale", [(64, 64, 4), (48, 48, 3), (80, 40, 5)])
    def test_reference_slope_is_the_upsampled_grids(self, tmp_path, h, w, scale, window):
        # unwindowed, the reference's spectrum comes from the coarse grid's DFT
        # and matches the upsampled grid's to rounding; --window upsamples
        fp, cp = write_pair(tmp_path, seed=3, h=h, w=w, scale=scale)
        out = tmp_path / "report.json"
        argv = ["metrics", str(fp), str(fp), str(cp), "--cell", "2x2", "--out", str(out)]
        assert main(argv + ["--window"] * window) == 0
        spectral = json.loads(out.read_text())["spectral"]
        fine, coarse = read_fgrd(fp), read_fgrd(cp)
        pred = ralsd(fine, window=window)
        ref = ralsd(upsample_quadratic(coarse, scale, scale), pred.fit_lo, pred.fit_hi, window)
        assert spectral["alpha_pred"] == pred.alpha
        assert spectral["fit_range"] == [pred.fit_lo, pred.fit_hi]
        if window:
            assert spectral["alpha_ref"] == ref.alpha
        else:
            assert spectral["alpha_ref"] == pytest.approx(ref.alpha, rel=1e-12)
        assert spectral["l_spec"] == pytest.approx(abs(pred.alpha - ref.alpha), rel=1e-12)

    def test_constant_coarse_gives_no_cell_advice(self, tmp_path, capsys):
        # a constant grid has r_eff = 0 at any cell size, so larger cells cannot help
        fp, _ = write_pair(tmp_path, h=64, w=64)
        const = tmp_path / "const.fgrd"
        write_fgrd(Grid2D(16, 16, 4.0, 4.0, np.full((16, 16), 2.5)), const)
        assert main(["metrics", str(fp), str(fp), str(const), "--cell", "4x4"]) == 4
        assert capsys.readouterr().err == (
            "warning: every coarse 4x4 cell has r_eff = 0, so L_flux ignores the coarse grid\n"
            "error: ref grid: zero power off DC: the grid is constant\n")

    def test_flux_error_wins_over_spectral_error(self, tmp_path, capsys):
        fp, cp = write_pair(tmp_path)
        assert main(["metrics", str(fp), str(fp), str(cp), "--cell", "5x5",
                     "--fit-lo=-3"]) == 3
        assert capsys.readouterr().err == "error: cell_h=5 does not divide grid height=16\n"

    def test_warning_comes_before_spectral_error(self, tmp_path, capsys):
        fp, cp = write_pair(tmp_path)  # 16x16 coarse grid: gcd cells are 1x1
        assert main(["metrics", str(fp), str(fp), str(cp), "--fit-lo=-3"]) == 2
        assert capsys.readouterr().err == (
            "warning: every coarse 1x1 cell has r_eff = 0, so L_flux ignores the coarse grid; "
            "pass --cell CHxCW with larger cells\n"
            "error: fit range [-3, 7] is not within the bins [0, 22]\n")

    def test_metrics_error_wins_over_pairing_error(self, tmp_path, capsys):
        fp, _ = write_pair(tmp_path)
        const, odd = tmp_path / "const.csv", tmp_path / "odd.fgrd"
        const.write_text("\n".join(",".join(["0.1"] * 32) for _ in range(32)) + "\n")
        write_fgrd(gen_grf(GrfSpec(24, 24, -2.0, 0)), odd)
        assert main(["metrics", str(fp), str(const), str(odd)]) == 4
        assert capsys.readouterr().err == "error: truth field is constant; R^2 undefined\n"

    def test_spectral_error_wins_over_hash_error(self, tmp_path, capsys, monkeypatch):
        def unreadable(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "_sha256", unreadable)
        fp, cp = write_pair(tmp_path)
        argv = ["metrics", str(fp), str(fp), str(cp), "--cell", "4x4"]
        assert main([*argv, "--fit-lo=-3"]) == 2
        assert capsys.readouterr().err == (
            "error: fit range [-3, 7] is not within the bins [0, 22]\n")
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{fp}'\n"

    @pytest.mark.parametrize("extra, code", [([], 0), (["--cell", "5x5", "--fit-lo=-3"], 3),
                                             (["--fit-lo=-3"], 2), ([], 1)])
    def test_no_thread_outlives_the_command(self, tmp_path, capsys, monkeypatch, extra, code):
        def unreadable(path):
            raise PermissionError(13, "Permission denied", str(path))

        if code == 1:  # the inputs cannot be hashed, the last stage
            monkeypatch.setattr(cli, "_sha256", unreadable)
        fp, cp = write_pair(tmp_path)
        before = threading.active_count()
        assert main(["metrics", str(fp), str(fp), str(cp), *extra]) == code
        assert threading.active_count() == before

    @pytest.mark.parametrize("stage", ["metric_report", "pde_loss"])
    def test_an_error_outside_the_exit_table_propagates(self, tmp_path, monkeypatch, stage):
        def broken(*args, **kwargs):
            raise RuntimeError(stage)

        monkeypatch.setattr(cli, stage, broken)  # pde_loss raises on the background thread
        fp, cp = write_pair(tmp_path)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=stage):
            main(["metrics", str(fp), str(fp), str(cp)])
        assert threading.active_count() == before

    def test_only_the_flux_loss_runs_off_the_main_thread(self, tmp_path, monkeypatch):
        calls = []

        def spy(name, func):
            def wrapper(*args, **kwargs):
                on_main = threading.current_thread() is threading.main_thread()
                calls.append((name, "call", on_main))
                result = func(*args, **kwargs)
                calls.append((name, "return", on_main))
                return result
            return wrapper

        for name in ("_sha256", "pde_loss", "ralsd_upsampled_pair"):
            monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
        fp, cp = write_pair(tmp_path)
        assert main(["metrics", str(fp), str(fp), str(cp), "--cell", "4x4"]) == 0
        assert {on_main for name, _, on_main in calls if name == "pde_loss"} == {False}
        spectra_done = calls.index(("ralsd_upsampled_pair", "return", True))
        hashes = [("_sha256", event, True) for _ in range(3) for event in ("call", "return")]
        assert [call for call in calls if call[0] == "_sha256"] == hashes
        assert [call for call in calls[spectra_done:] if call[0] == "_sha256"] == hashes

    def test_report_same_under_fast_thread_switching(self, tmp_path):
        fp, cp = write_pair(tmp_path, seed=3)
        docs = []
        for interval in (sys.getswitchinterval(), 1e-6):
            old, out = sys.getswitchinterval(), tmp_path / "report.json"
            sys.setswitchinterval(interval)
            try:
                assert main(["metrics", str(fp), str(fp), str(cp), "--anomaly", "--cell", "2x2",
                             "--out", str(out)]) == 0
            finally:
                sys.setswitchinterval(old)
            doc = json.loads(out.read_text())
            doc.pop("timing")
            docs.append(doc)
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("value", ["0.1", "-3.7"])  # constants with inexact means
    def test_inexact_constant_truth_exit_4(self, tmp_path, capsys, value):
        fp, cp = write_pair(tmp_path)
        const, out = tmp_path / "const.csv", tmp_path / "report.json"
        const.write_text("\n".join(",".join([value] * 32) for _ in range(32)) + "\n")
        assert main(["metrics", str(fp), str(const), str(cp), "--out", str(out)]) == 4
        assert capsys.readouterr().err == "error: truth field is constant; R^2 undefined\n"
        assert not out.exists()

    @pytest.mark.parametrize("value, rule", [
        ("whatever", "expects CHxCW (e.g. 3x2)"), ("3by2", "expects CHxCW (e.g. 3x2)"),
        ("0x3", "dims must be positive"), ("2x-1", "dims must be positive")],
        ids=["whatever", "3by2", "0x3", "2x-1"])
    def test_bad_cell_usage_error(self, tmp_path, capsys, value, rule):
        fp, cp = write_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["metrics", str(fp), str(fp), str(cp), "--cell", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --cell: {rule}, got {value!r}\n")


def csv_inputs(tmp_path, n=64, seed=4):
    """pred (truth plus noise), truth and its 4x4 block mean as CSV files."""
    truth = gen_grf(GrfSpec(n, n, -2.5, seed))
    noise = np.random.default_rng(seed).standard_normal((n, n))
    grids = {"pred": truth.with_values(truth.values + 0.1 * noise), "truth": truth,
             "coarse": coarsen_block_mean(truth, 4, 4)}
    for name, grid in grids.items():
        write_csv(grid, tmp_path / f"{name}.csv")
    return [str(tmp_path / f"{name}.csv") for name in grids]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestMetricsHalfGivenFitRange:
    @pytest.mark.parametrize("fit, code", [([], 4), (["--fit-hi", "8"], 0),
                                           (["--fit-lo", "3"], 2)])
    def test_exit_codes(self, tmp_path, capsys, fit, code):
        # 16x16: the default fit range holds one bin, so only a range given at
        # one end or both can be fitted
        fp, cp = write_pair(tmp_path, h=16, w=16)
        out = tmp_path / "report.json"
        assert main(["metrics", str(fp), str(fp), str(cp), "--cell", "2x2", *fit,
                     "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code == 0:
            assert json.loads(out.read_text())["spectral"]["fit_range"] == [3, 8]
        else:
            assert capsys.readouterr().err.startswith(
                "error: pred grid: only 1 bins" if code == 4 else "error: fit range [3, 3]")


class TestMetricsCsvTruthWorker:
    """A CSV truth is parsed in a forked worker; the report, the errors and
    their order are the serial load's, and no worker outlives the command."""

    def test_report_equals_the_api_on_read_csv(self, tmp_path):
        paths, out = csv_inputs(tmp_path), tmp_path / "report.json"
        assert main(["metrics", *paths, "--cell", "4x4", "--out", str(out)]) == 0
        assert_no_child_left()
        doc = json.loads(out.read_text())
        pred, truth = read_csv(paths[0]), read_csv(paths[1])
        coarse = read_csv(paths[2], dx=4.0, dy=4.0)  # the fine spacing times the scale
        flux = pde_loss(GridPair.from_grids(coarse, pred), pred, cell_override=(4, 4))
        report = {key: value for key, value in vars(metric_report(pred, truth)).items()
                  if value is not None}  # l_flux and l_spec are the command's to fill
        assert {key: doc["metrics"][key] for key in report} == report
        r_f = flux.fine_report.r_eff
        assert doc["flux"]["l_flux"] == doc["metrics"]["l_flux"] == flux.loss
        assert doc["flux"]["n_cells"] == flux.n_cells
        assert doc["flux"]["r_eff_fine"] == {"min": float(r_f.min()), "max": float(r_f.max()),
                                             "mean": float(r_f.mean())}

    @pytest.mark.parametrize("bad, message", [
        ({"truth": "x"}, "non-numeric cell 'x' at row 3, column 2"),
        ({"truth": None}, "file not found: {truth}"),
        ({"pred": "x", "truth": "y"}, "non-numeric cell 'x' at row 3, column 2"),
        ({"truth": "y", "coarse": "z"}, "non-numeric cell 'y' at row 3, column 2"),
    ], ids=["bad-truth", "missing-truth", "bad-pred-and-truth", "bad-truth-and-coarse"])
    def test_errors_keep_the_serial_order(self, tmp_path, capfd, bad, message):
        paths = dict(zip(("pred", "truth", "coarse"), csv_inputs(tmp_path, n=32)))
        for name, cell in bad.items():
            if cell is None:
                os.remove(paths[name])
                continue
            rows = Path(paths[name]).read_text().splitlines()
            cells = rows[2].split(",")
            cells[1] = cell
            rows[2] = ",".join(cells)
            Path(paths[name]).write_text("\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        assert main(["metrics", *paths.values(), "--out", str(out)]) == 1
        assert_no_child_left()
        assert capfd.readouterr() == ("", f"error: {message.format(**paths)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("exts", [("fgrd", "fgrd", "fgrd"), ("csv", "fgrd", "csv")],
                             ids=["fgrd", "csv-pred-fgrd-truth"])
    def test_fgrd_truth_never_forks(self, tmp_path, monkeypatch, exts):
        def fork():
            raise AssertionError("forked for an FGRD truth")

        monkeypatch.setattr(os, "fork", fork)
        fp, cp = write_pair(tmp_path)
        paths = [str(fp), str(fp), str(cp)]
        for i, ext in enumerate(exts):
            if ext == "csv":
                paths[i] = str(tmp_path / f"input{i}.csv")
                write_csv(read_fgrd(fp if i < 2 else cp), paths[i])
        assert main(["metrics", *paths, "--out", str(tmp_path / "report.json")]) == 0

    def test_bad_pred_does_not_wait_for_truth(self, tmp_path, capfd):
        # truth is a FIFO with no writer, so its worker blocks in open() until
        # the command kills it; the timer opens the FIFO only if it is not killed
        paths = csv_inputs(tmp_path, n=32)
        Path(paths[0]).write_text("1,2\n3,x\n")
        os.remove(paths[1])
        os.mkfifo(paths[1])
        unblocked = threading.Event()

        def unblock():
            os.close(os.open(paths[1], os.O_WRONLY | os.O_NONBLOCK))
            unblocked.set()

        timer = threading.Timer(20.0, unblock)
        timer.start()
        try:
            assert main(["metrics", *paths]) == 1
        finally:
            timer.cancel()
            timer.join(5.0)
        assert not timer.is_alive() and not unblocked.is_set()
        assert_no_child_left()
        assert capfd.readouterr().err == "error: non-numeric cell 'x' at row 2, column 2\n"

    def test_failed_fork_loads_serially(self, tmp_path, monkeypatch):
        def failing_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        paths, docs = csv_inputs(tmp_path), []
        for fork in (os.fork, failing_fork, None):
            if fork is None:  # no os.fork at all, as on Windows
                monkeypatch.delattr(os, "fork")
            else:
                monkeypatch.setattr(os, "fork", fork)
            out = tmp_path / "report.json"
            assert main(["metrics", *paths, "--cell", "4x4", "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            doc.pop("timing")
            docs.append(doc)
        assert docs[0] == docs[1] == docs[2]

    def test_fork_beside_threads_does_not_warn(self, tmp_path, monkeypatch):
        # Python >= 3.12 warns this way when a process with threads, such as
        # numpy's OpenBLAS workers, forks
        fork, forks = os.fork, []

        def warning_fork():
            warnings.warn("This process is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            forks.append(fork())
            return forks[-1]

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["metrics", *csv_inputs(tmp_path), "--out",
                         str(tmp_path / "report.json")]) == 0
        assert len(forks) == 1 and forks[0] > 0
        assert_no_child_left()
        assert [str(w.message) for w in caught if "fork()" in str(w.message)] == []

    def test_short_read_is_no_grid(self):
        values = np.random.default_rng(0).standard_normal((3, 4))
        sent = Grid2D.from_values(values, dx=0.5, dy=2.0)
        message = pickle.dumps(sent, pickle.HIGHEST_PROTOCOL)
        grid = cli._receive_grid(io.BytesIO(message))
        assert (grid.height, grid.width, grid.dx, grid.dy) == (3, 4, 0.5, 2.0)
        assert grid.values.tobytes() == sent.values.tobytes()
        # cut at 0 bytes, inside the protocol and frame opcodes, and one byte short
        for end in (0, 5, len(message) - 1):
            assert cli._receive_grid(io.BytesIO(message[:end])) is None


class TestRefine:
    def test_lambda_zero_identity_at_32bit(self, tmp_path):
        fp, cp = write_pair(tmp_path, seed=5)
        out = tmp_path / "refined.fgrd"
        code = main(["refine", str(fp), str(cp), "--lam", "0.0",
                     "--iters", "5", "--out", str(out)])
        assert code == 0
        assert np.array_equal(read_fgrd(out).values, read_fgrd(fp).values)

    def test_trace_csv_written(self, tmp_path):
        fp, cp = write_pair(tmp_path, seed=6, h=16, w=16)
        out = tmp_path / "refined.fgrd"
        trace = tmp_path / "trace.csv"
        code = main(["refine", str(fp), str(cp), "--lam", "1.0", "--iters", "5",
                     "--out", str(out), "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iter,objective,fidelity,pde"
        objs = [float(line.split(",")[1]) for line in lines[1:]]
        assert objs == sorted(objs, reverse=True) or len(objs) == 1
        want = refine(read_fgrd(fp), read_fgrd(cp), RefineConfig(lambda_pde=1.0, max_iters=5))
        assert trace.read_text() == trace_text(want)

    def test_degenerate_reference_warning(self, tmp_path, capsys):
        fp, cp = write_pair(tmp_path)  # 16x16 coarse grid: gcd cells are 1x1
        assert main(["refine", str(fp), str(cp), "--iters", "2",
                     "--out", str(tmp_path / "o.fgrd")]) == 0
        assert capsys.readouterr().err == (
            "warning: every coarse 1x1 cell has r_eff = 0, so L_flux ignores the coarse grid; "
            "pass --cell CHxCW with larger cells\n")
        assert main(["refine", str(fp), str(cp), "--iters", "2", "--cell", "4x4",
                     "--out", str(tmp_path / "o.fgrd")]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_init_io_error(self, tmp_path):
        _, cp = write_pair(tmp_path)
        assert main(["refine", str(tmp_path / "nope.fgrd"), str(cp),
                     "--out", str(tmp_path / "o.fgrd")]) == 1

    def test_negative_lambda_usage_error(self, tmp_path):
        fp, cp = write_pair(tmp_path)
        assert main(["refine", str(fp), str(cp), "--lam", "-1.0",
                     "--out", str(tmp_path / "o.fgrd")]) == 2

    def test_stall_exit_5_with_trace(self, tmp_path, capsys):
        fp, cp = write_pair(tmp_path, seed=7, h=16, w=16)  # 8x8 coarse grid: 1x1 cells
        out = tmp_path / "o.fgrd"
        trace = tmp_path / "trace.csv"
        # enormous fd step gives a bogus numeric gradient; the microscopic
        # step size then cannot descend within 30 halvings
        code = main(["refine", str(fp), str(cp), "--lam", "1.0",
                     "--grad-mode", "numeric_central", "--fd-h", "100.0",
                     "--step", "1e-25", "--iters", "3",
                     "--out", str(out), "--trace", str(trace)])
        assert code == 5
        # the degenerate-reference warning comes before the stall's error
        warning, error = capsys.readouterr().err.splitlines()
        assert warning == ("warning: every coarse 1x1 cell has r_eff = 0, so L_flux ignores "
                           "the coarse grid; pass --cell CHxCW with larger cells")
        assert error.startswith("error: no descent step found ")
        assert trace.exists()
        assert not out.exists()
        cfg = RefineConfig(lambda_pde=1.0, grad_mode="numeric_central", fd_h=100.0,
                           step_size=1e-25, max_iters=3)
        with pytest.raises(ConvergenceStallError) as stall:
            refine(read_fgrd(fp), read_fgrd(cp), cfg)
        assert trace.read_text() == trace_text(stall.value.trace)

    @pytest.mark.parametrize("step", ["1e308", "1e300"])
    def test_overflowing_step_stalls_quietly(self, tmp_path, capsys, step):
        # every candidate overflows to inf (1e308) or gives a non-finite
        # objective (1e300): each is rejected and halved, none is kept
        assert main(["synth", "grf", "--h", "64", "--w", "64", "--slope", "-2.5",
                     "--scale", "4", "--out-fine", str(tmp_path / "f.fgrd"),
                     "--out-coarse", str(tmp_path / "c.fgrd")]) == 0
        capsys.readouterr()
        out, trace = tmp_path / "o.fgrd", tmp_path / "trace.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["refine", str(tmp_path / "f.fgrd"), str(tmp_path / "c.fgrd"),
                         "--cell", "4x4", "--lam", "1000", "--step", step,
                         "--out", str(out), "--trace", str(trace)])
        assert code == 5
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: no descent step found ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()
        rows = trace.read_text().strip().splitlines()[1:]
        assert len(rows) == 1  # the initial state only
        assert all(np.isfinite(float(x)) for x in rows[0].split(","))


class TestNonFiniteOptions:
    """A NaN, inf or out-of-range option is a usage error (exit 2) that names
    its value, and leaves no report, trace or output file behind."""

    @pytest.mark.parametrize("flag,value,named", [
        ("--eps", "nan", "eps must be finite and > 0, got nan"),
        ("--eps", "inf", "eps must be finite and > 0, got inf"),
        ("--eps", "0", "eps must be finite and > 0, got 0.0"),
        ("--ratio-eps", "nan", "ratio_eps must be finite and > 0, got nan"),
        ("--ratio-eps", "inf", "ratio_eps must be finite and > 0, got inf"),
        ("--ratio-eps", "-1e-3", "ratio_eps must be finite and > 0, got -0.001"),
        ("--fit-hi", "5000", "fit range [3, 5000] is not within the bins [0, 22]"),
        ("--fit-lo", "-3", "fit range [-3, 7] is not within the bins [0, 22]")])
    def test_metrics(self, tmp_path, capsys, flag, value, named):
        fp, cp = write_pair(tmp_path)
        out = tmp_path / "report.json"
        assert main(["metrics", str(fp), str(fp), str(cp), f"{flag}={value}",
                     "--out", str(out)]) == 2
        assert f"error: {named}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--lam", "nan"), ("--lam", "inf"), ("--step", "nan"), ("--step", "inf"),
        ("--eps", "nan"), ("--eps", "inf"), ("--tol", "nan"), ("--tol", "-1"),
        ("--fd-h", "nan"), ("--fd-h", "0")])
    def test_refine(self, tmp_path, capsys, flag, value):
        fp, cp = write_pair(tmp_path, h=16, w=16)
        out, trace = tmp_path / "o.fgrd", tmp_path / "trace.csv"
        assert main(["refine", str(fp), str(cp), "--iters", "3", f"{flag}={value}",
                     "--out", str(out), "--trace", str(trace)]) == 2
        assert str(float(value)) in capsys.readouterr().err
        assert not out.exists() and not trace.exists()

    @pytest.mark.parametrize("argv,named", [
        (["grf", "--slope", "-2", "--scale", "0"], "scales must be >= 1, got (0, 0)"),
        (["grf", "--slope", "nan"], "target_slope must be finite and < 0, got nan"),
        (["grf", "--slope", "-2", "--amplitude", "nan"],
         "amplitude must be finite and > 0, got nan"),
        (["advdiff", "--dt", "nan"], "dt must be finite and > 0, got nan"),
        (["advdiff", "--D", "nan"], "diffusivity must be finite and >= 0, got nan"),
        (["advdiff", "--ux", "nan"], "u_x and u_y must be finite, got nan, 0.0"),
        (["advdiff", "--uy", "inf"], "u_x and u_y must be finite, got 0.0, inf"),
        (["advdiff", "--steps", "-1"], "steps must be >= 0, got -1")])
    def test_synth(self, tmp_path, capsys, argv, named):
        out = tmp_path / "x.fgrd"
        assert main(["synth", argv[0], "--h", "16", "--w", "16", *argv[1:],
                     "--out-fine", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_refine_negative_iters(self, tmp_path, capsys):
        fp, cp = write_pair(tmp_path, h=16, w=16)
        out, trace = tmp_path / "o.fgrd", tmp_path / "trace.csv"
        assert main(["refine", str(fp), str(cp), "--iters", "-3",
                     "--out", str(out), "--trace", str(trace)]) == 2
        assert capsys.readouterr().err == "error: max_iters must be finite and >= 0, got -3\n"
        assert not out.exists() and not trace.exists()

    def test_ralsd_fit_range(self, tmp_path, capsys):
        fp, _ = write_pair(tmp_path)
        assert main(["ralsd", str(fp), "--fit-lo", "2", "--fit-hi", "5000"]) == 2
        captured = capsys.readouterr()
        assert "[2, 5000]" in captured.err and "fit_bins" not in captured.out

    def test_empty_fit_range_is_named_empty(self, tmp_path, capsys):
        # both ends are bins of the 64x64 grid's [0, 44], but the range between them is empty
        fp, cp = write_pair(tmp_path, h=64, w=64, scale=4)
        out = tmp_path / "report.json"
        assert main(["metrics", str(fp), str(fp), str(cp), "--cell", "4x4", "--fit-hi", "2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: fit range [3, 2] is empty: fit_lo > fit_hi\n"
        assert not out.exists()
        assert main(["ralsd", str(fp), "--fit-lo", "9", "--fit-hi", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: fit range [9, 5] is empty: fit_lo > fit_hi\n"
        assert captured.out == ""


class TestRalsd:
    def test_profile_and_slope(self, tmp_path, capsys):
        fp, _ = write_pair(tmp_path, h=64, w=64, slope=-3.0)
        prof = tmp_path / "profile.txt"
        code = main(["ralsd", str(fp), "--out-profile", str(prof)])
        assert code == 0
        assert "alpha=" in capsys.readouterr().out
        rows = [line.split() for line in prof.read_text().strip().splitlines()]
        k = np.array([float(r[0]) for r in rows])
        psi = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(k) > 0)
        assert np.all(psi > 0)
        want = ralsd(read_fgrd(fp))
        assert prof.read_text() == "".join(f"{k:.17g} {psi:.17g}\n"
                                           for k, psi in zip(want.k_bins, want.psi))

    def test_text_writers_leave_gzip_unloaded(self, tmp_path):
        """np.savetxt given a path opens it through numpy's datasource, which
        imports gzip (about 1.4 ms); the writers pass it an open handle."""
        fp, cp = write_pair(tmp_path)
        refine_argv = ["refine", str(fp), str(cp), "--iters", "2", "--out",
                       str(tmp_path / "o.fgrd"), "--trace", str(tmp_path / "trace.csv")]
        ralsd_argv = ["ralsd", str(fp), "--out-profile", str(tmp_path / "profile.txt")]
        child = "\n".join([
            "import sys", "from fluxgrid.cli import main",
            f"codes = [main({refine_argv!r}), main({ralsd_argv!r})]",
            "print(codes, [m for m in ('gzip', 'hashlib', 'json') if m in sys.modules])"])
        env = {**os.environ, "PYTHONPATH": str(Path(fluxgrid.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                             env=env, check=True)
        assert run.stdout.splitlines()[-1] == "[0, 0] []"
        assert (tmp_path / "trace.csv").stat().st_size > 0
        assert (tmp_path / "profile.txt").stat().st_size > 0

    def test_constant_grid_exit_4(self, tmp_path, capsys):
        # at 37x50 the FFT of a constant leaves rounding power off DC
        const = tmp_path / "const.csv"
        for h, w, value in ((32, 32, "2.0"), (37, 50, "0.1")):
            const.write_text("\n".join(",".join([value] * w) for _ in range(h)) + "\n")
            assert main(["ralsd", str(const)]) == 4
            assert capsys.readouterr().err == "error: zero power off DC: the grid is constant\n"

    def test_too_few_default_fit_bins_exit_4(self, tmp_path, capsys):
        # 12 wide, no bin lies between 4 cycles per domain and 0.25 cycles per pixel
        small = tmp_path / "small.csv"
        write_csv(Grid2D.from_values(np.random.default_rng(0).normal(size=(12, 12))), small)
        assert main(["ralsd", str(small)]) == 4
        assert capsys.readouterr().err == (
            "error: only 0 bins in the default fit range; need at least 4\n")

    @pytest.mark.parametrize("n, fit, code, err", [
        (16, [], 4, "error: only 1 bins in the default fit range; need at least 4\n"),
        (16, ["--fit-hi", "8"], 0, ""),
        (16, ["--fit-lo", "3"], 2, "error: fit range [3, 3] has fewer than 4 bins\n"),
        (12, ["--fit-hi", "5"], 4,
         "error: only 0 bins in the default fit range; need at least 4\n")])
    def test_half_given_fit_range(self, tmp_path, capsys, n, fit, code, err):
        # one end given: the range is judged as resolved, [3, 8] and [3, 3] at 16x16;
        # at 12x12 the defaulted end has no bin
        path = tmp_path / "grid.csv"
        write_csv(Grid2D.from_values(np.random.default_rng(n).normal(size=(n, n))), path)
        assert main(["ralsd", str(path), *fit]) == code
        out, got = capsys.readouterr()
        assert got == err
        if code == 0:
            assert out.endswith("fit_bins=[3,8]\n")

    def test_non_utf8_csv_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2\n\xff,3\n")
        assert main(["ralsd", str(bad)]) == 1
        assert "row 2, column 1" in capsys.readouterr().err

    def test_tiny_grid_exit_3(self, tmp_path):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("1,2\n3,4\n")
        assert main(["ralsd", str(tiny)]) == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_command_usage_exit():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_numpy_is_the_only_runtime_dependency(tmp_path):
    """metrics and refine, run in a fresh process, import nothing after numpy
    but the standard library, numpy and fluxgrid, and never numpy.ma (13-15 ms
    to import). hashlib (it loads OpenSSL) and json are left to metrics, the
    one command that uses them, and signal to a CSV truth's worker: the import
    and refine load none of them."""
    fp, cp = write_pair(tmp_path, h=64, w=64, scale=4)
    metrics = ["metrics", str(fp), str(fp), str(cp), "--out", str(tmp_path / "r.json")]
    refine = ["refine", str(fp), str(cp), "--iters", "3", "--out", str(tmp_path / "o.fgrd")]
    child = "\n".join([
        "import sys", "import numpy", "before = set(sys.modules)",
        "late = lambda: [m for m in ('hashlib', 'json', 'signal') if m in sys.modules]",
        "from fluxgrid.cli import main", "late_import = late()",
        f"codes = [main({refine!r})]", "late_refine = late()",
        f"codes.append(main({metrics!r}))", "import json",
        "print(json.dumps([codes, sorted(set(sys.modules) - before), sorted(sys.modules),"
        " late_import, late_refine]))"])
    env = {**os.environ, "PYTHONPATH": str(Path(fluxgrid.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         env=env, check=True)
    codes, imported, loaded, late_import, late_refine = json.loads(run.stdout.splitlines()[-1])
    assert late_import == late_refine == []
    assert codes == [0, 0]
    foreign = [name for name in imported if name.split(".")[0] not in
               sys.stdlib_module_names | {"numpy", "fluxgrid"}]
    assert foreign == []
    assert "numpy.ma" not in loaded


def test_every_module_imports_only_numpy_and_the_standard_library():
    """The run above sees only what metrics and refine import. This reads every
    module of the package, imports inside functions included, so a lazy import on
    a path those runs skip (synth, ralsd, --window, the CSV worker, an error path)
    fails here too. Relative imports are the package's own."""
    allowed = sys.stdlib_module_names | {"numpy"}
    foreign = []
    for path in sorted(Path(fluxgrid.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []


class TestEntry:
    def test_main_never_freezes(self, tmp_path):
        fp, cp = write_pair(tmp_path)
        before = gc.get_freeze_count()
        assert main(["metrics", str(fp), str(fp), str(cp)]) == 0
        assert main(["synth", "grf", "--h", "16", "--w", "16", "--slope", "-2",
                     "--out-fine", str(tmp_path / "g.fgrd")]) == 0
        assert gc.get_freeze_count() == before

    def test_entry_freezes_then_runs_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
        assert cli.entry() == 7
        assert calls == ["freeze", "main"]

    def test_module_entry_runs_metrics(self, tmp_path):
        fp, cp = write_pair(tmp_path)
        out = tmp_path / "report.json"
        env = {**os.environ, "PYTHONPATH": str(Path(fluxgrid.__file__).parents[1])}
        argv = [sys.executable, "-m", "fluxgrid.cli", "metrics", str(fp), str(fp), str(cp)]
        run = subprocess.run([*argv, "--out", str(out)], capture_output=True, text=True,
                             env=env)
        assert run.returncode == 0, run.stderr
        labels = [line.split()[0] for line in run.stdout.splitlines()]
        assert labels == ["RMSE", "R2", "PCC", "Bias", "L_flux", "L_spec"]
        assert json.loads(out.read_text())["metrics"]["rmse"] == 0.0
        out.unlink()
        run = subprocess.run([*argv, "--eps", "nan", "--out", str(out)],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 2
        assert run.stderr == "error: eps must be finite and > 0, got nan\n"
        assert not out.exists()
