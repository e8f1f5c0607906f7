import gc
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fluxgrid
from fluxgrid import (Grid2D, GrfSpec, coarsen_block_mean, gen_grf, read_fgrd, write_csv,
                      write_fgrd)
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

    def test_bad_config_line_usage_error(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("h 16\n")
        assert main(["synth", "advdiff", "--config", str(conf),
                     "--out-fine", str(tmp_path / "x.fgrd")]) == 2

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
        # fine spacing, as the FGRD coarse grid is, not at spacing 1
        assert main(["synth", "grf", "--h", "64", "--w", "64", "--slope", "-2.5",
                     "--scale", "4", "--out-fine", str(tmp_path / "f.fgrd"),
                     "--out-coarse", str(tmp_path / "c.fgrd")]) == 0
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
        assert l_flux["fgrd"] > 1.0
        assert l_flux["csv"] == l_flux["fgrd"]

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
        # the spectrum that fails is the upsampled coarse reference's
        fp, _ = write_pair(tmp_path, h=64, w=64)
        const = tmp_path / "const.fgrd"
        write_fgrd(Grid2D(16, 16, 4.0, 4.0, np.full((16, 16), 2.5)), const)
        assert main(["metrics", str(fp), str(fp), str(const), "--cell", "4x4"]) == 4
        assert "ref grid: zero power" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.1", "-3.7"])  # constants with inexact means
    def test_inexact_constant_truth_exit_4(self, tmp_path, capsys, value):
        fp, cp = write_pair(tmp_path)
        const, out = tmp_path / "const.csv", tmp_path / "report.json"
        const.write_text("\n".join(",".join([value] * 32) for _ in range(32)) + "\n")
        assert main(["metrics", str(fp), str(const), str(cp), "--out", str(out)]) == 4
        assert capsys.readouterr().err == "error: truth field is constant; R^2 undefined\n"
        assert not out.exists()

    def test_bad_cell_usage_error(self, tmp_path, capsys):
        fp, cp = write_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["metrics", str(fp), str(fp), str(cp), "--cell", "whatever"])
        assert exc.value.code == 2


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

    def test_missing_init_io_error(self, tmp_path):
        _, cp = write_pair(tmp_path)
        assert main(["refine", str(tmp_path / "nope.fgrd"), str(cp),
                     "--out", str(tmp_path / "o.fgrd")]) == 1

    def test_negative_lambda_usage_error(self, tmp_path):
        fp, cp = write_pair(tmp_path)
        assert main(["refine", str(fp), str(cp), "--lam", "-1.0",
                     "--out", str(tmp_path / "o.fgrd")]) == 2

    def test_stall_exit_5_with_trace(self, tmp_path):
        fp, cp = write_pair(tmp_path, seed=7, h=16, w=16)
        out = tmp_path / "o.fgrd"
        trace = tmp_path / "trace.csv"
        # enormous fd step gives a bogus numeric gradient; the microscopic
        # step size then cannot descend within 30 halvings
        code = main(["refine", str(fp), str(cp), "--lam", "1.0",
                     "--grad-mode", "numeric_central", "--fd-h", "100.0",
                     "--step", "1e-25", "--iters", "3",
                     "--out", str(out), "--trace", str(trace)])
        assert code == 5
        assert trace.exists()
        assert not out.exists()

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
        (["advdiff", "--uy", "inf"], "u_x and u_y must be finite, got 0.0, inf")])
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

    def test_constant_grid_exit_4(self, tmp_path):
        const = tmp_path / "const.csv"
        const.write_text("\n".join(",".join(["2.0"] * 32) for _ in range(32)) + "\n")
        assert main(["ralsd", str(const)]) == 4

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
    one command that uses them: the import and refine load neither."""
    fp, cp = write_pair(tmp_path, h=64, w=64, scale=4)
    metrics = ["metrics", str(fp), str(fp), str(cp), "--out", str(tmp_path / "r.json")]
    refine = ["refine", str(fp), str(cp), "--iters", "3", "--out", str(tmp_path / "o.fgrd")]
    child = "\n".join([
        "import sys", "import numpy", "before = set(sys.modules)",
        "late = lambda: [m for m in ('hashlib', 'json') if m in sys.modules]",
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
