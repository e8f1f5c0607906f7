import json
import struct
import warnings

import numpy as np
import pytest

from fluxgrid import (Grid2D, GrfSpec, coarsen_block_mean, gen_grf, read_fgrd, write_csv,
                      write_fgrd)
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
