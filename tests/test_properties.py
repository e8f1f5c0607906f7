"""Property tests for the grid formats: round-trips and corrupt FGRD headers."""

import math
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from fluxgrid import (Grid2D, GrfSpec, coarsen_block_mean, gen_grf, read_csv,  # noqa: E402
                      read_fgrd, write_csv, write_fgrd)
from fluxgrid.cli import main  # noqa: E402

# tmp_path is shared by the examples of one test; each example overwrites its files.
SETTINGS = settings(max_examples=40, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)
spacings = st.floats(min_value=1e-3, max_value=1e3)


@SETTINGS
@given(hnp.arrays(np.float64, shapes, elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_roundtrip_exact(tmp_path, values):
    path = tmp_path / "g.csv"
    write_csv(Grid2D.from_values(values, 1.0, 1.0), path)
    assert read_csv(path).values.tobytes() == values.tobytes()


@SETTINGS
@given(hnp.arrays(np.float64, shapes,
                   elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
       spacings, spacings)
def test_fgrd_roundtrip_exact_after_f32_cast(tmp_path, values, dx, dy):
    path = tmp_path / "g.fgrd"
    write_fgrd(Grid2D.from_values(values, dx, dy), path)
    back = read_fgrd(path)
    assert back.values.tobytes() == values.astype(np.float32).astype(np.float64).tobytes()
    assert (back.dx, back.dy) == (dx, dy)


def _corrupt_header(data, how, value):
    """Return data with one header field made invalid: the file cannot load."""
    height, width = struct.unpack_from("<II", data, 6)
    if how == "truncate":
        return data[:value % 30]
    if how == "magic":
        return bytes([data[0] ^ (value % 255 + 1)]) + data[1:]
    if how == "version":
        return data[:4] + struct.pack("<H", (2 + value % 65535) % 2 ** 16) + data[6:]
    if how in ("height", "width"):
        offset = 6 if how == "height" else 10
        size = value % 2 ** 32
        other = width if how == "height" else height
        if size * other == height * width:
            size = 0
        return data[:offset] + struct.pack("<I", size) + data[offset + 4:]
    offset = 14 if how == "dx" else 22
    bad = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0)[value % 6]
    return data[:offset] + struct.pack("<d", bad) + data[offset + 8:]


@pytest.fixture(scope="module")
def valid_pair(tmp_path_factory):
    """A fine/coarse FGRD pair on which `fluxgrid metrics` exits 0."""
    root = tmp_path_factory.mktemp("pair")
    fine = gen_grf(GrfSpec(32, 32, -2.5, 0))
    fp, cp = root / "f.fgrd", root / "c.fgrd"
    write_fgrd(fine, fp)
    write_fgrd(coarsen_block_mean(fine, 2, 2), cp)
    assert main(["metrics", str(fp), str(fp), str(cp)]) == 0
    return fp, cp


@SETTINGS
@given(st.sampled_from(["truncate", "magic", "version", "height", "width", "dx", "dy"]),
       st.integers(min_value=0, max_value=2 ** 40))
def test_corrupt_fgrd_header_metrics_exit_1(tmp_path, valid_pair, how, value):
    fp, cp = valid_pair
    bad = tmp_path / "bad.fgrd"
    bad.write_bytes(_corrupt_header(fp.read_bytes(), how, value))
    assert main(["metrics", str(bad), str(fp), str(cp)]) == 1
