"""Grid serialization: a minimal binary raster format plus CSV.

FGRD layout (little-endian, normative):
  offset 0   magic   4 bytes  "FGRD"
  offset 4   version u16      = 1
  offset 6   height  u32
  offset 10  width   u32
  offset 14  dx      f64
  offset 22  dy      f64
  offset 30  payload height*width f32, row-major

Values are truncated to 32-bit on write; re-reading is bitwise stable
thereafter. A zero height or width, a non-finite or non-positive spacing,
and a NaN or inf in the payload raise FormatError at their byte offset,
and so does writing a value beyond the f32 range (no file is made). CSV
stores full doubles with 17 significant digits and is read in one C-level
np.loadtxt pass; only if that fails is it walked cell by cell with float(),
which raises CsvParseError at the row and column of the fault, a byte that
is not text in the file's encoding included.
"""

import math
import struct
import warnings

import numpy as np

from .errors import CsvParseError, FormatError
from .grid_core import Grid2D

MAGIC = b"FGRD"
VERSION = 1
_HEADER = struct.Struct("<4sHIIdd")  # 30 bytes


def _first_nonfinite(values):
    """Flat index of the first NaN or inf in values, or None."""
    bad = ~np.isfinite(values)
    return int(bad.argmax()) if bad.any() else None


def write_fgrd(grid, path):
    """Write grid; values beyond the f32 range raise FormatError, no file is made."""
    with np.errstate(over="ignore"):
        values = grid.values.astype("<f4")
    index = _first_nonfinite(values)
    if index is not None:
        raise FormatError(
            f"value {float(grid.values.flat[index])!r} at index {divmod(index, grid.width)} "
            f"is beyond the f32 range", offset=_HEADER.size + 4 * index)
    payload = values.tobytes()
    header = _HEADER.pack(MAGIC, VERSION, grid.height, grid.width, grid.dx, grid.dy)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_fgrd(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise FormatError(
            f"file ends at byte {len(data)}, header needs {_HEADER.size} bytes",
            offset=len(data))
    magic, version, height, width, dx, dy = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0", offset=0)
    if version != VERSION:
        raise FormatError(f"unsupported version {version} at byte 4", offset=4)
    for name, size, offset in (("height", height, 6), ("width", width, 10)):
        if size == 0:
            raise FormatError(f"{name}=0 at byte {offset} must be positive", offset=offset)
    for name, spacing, offset in (("dx", dx, 14), ("dy", dy, 22)):
        if not (math.isfinite(spacing) and spacing > 0):
            raise FormatError(
                f"{name}={spacing!r} at byte {offset} must be finite and positive",
                offset=offset)
    expected = _HEADER.size + height * width * 4
    if len(data) != expected:
        raise FormatError(
            f"payload for {height}x{width} needs {expected} bytes, "
            f"file ends at byte {len(data)}",
            offset=min(len(data), expected))
    values = np.frombuffer(data, dtype="<f4", offset=_HEADER.size)
    index = _first_nonfinite(values)
    if index is not None:
        offset = _HEADER.size + 4 * index
        raise FormatError(f"non-finite value {values[index]} at byte {offset}", offset=offset)
    return Grid2D(height, width, dx, dy,
                  values.astype(np.float64).reshape(height, width))


def write_csv(grid, path):
    with open(path, "w") as fh:
        np.savetxt(fh, grid.values, fmt="%.17g", delimiter=",")


def read_csv(path, dx=1.0, dy=1.0):
    # bytes that do not decode become lone surrogates, so no number takes them
    with open(path, errors="surrogateescape") as fh:
        try:
            with warnings.catch_warnings():  # an empty file warns; the walk raises
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
        except ValueError:
            values = np.empty(0)
        if values.size and _first_nonfinite(values) is None:
            return Grid2D(values.shape[0], values.shape[1], dx, dy, values)
        # The walk names the fault, or takes what float() takes and loadtxt does
        # not: lines of spaces, 1_0, non-ASCII digits.
        fh.seek(0)
        rows, line_nos = [], []
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            parsed = []
            for col_no, cell in enumerate(cells, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    what = f"non-numeric cell {cell!r}"
                    if any("\udc80" <= ch <= "\udcff" for ch in cell):
                        raw = cell.encode(fh.encoding, "surrogateescape")
                        what = f"non-{fh.encoding} cell {raw!r}"
                    raise CsvParseError(f"{what} at row {line_no}, column {col_no}",
                                        row=line_no, col=col_no) from None
            if rows and len(parsed) != len(rows[0]):
                raise CsvParseError(
                    f"row {line_no} has {len(parsed)} cells, expected {len(rows[0])}",
                    row=line_no)
            rows.append(parsed)
            line_nos.append(line_no)
    if not rows:
        raise CsvParseError("empty CSV grid", row=1)
    values = np.array(rows)
    index = _first_nonfinite(values)
    if index is not None:
        row, col = line_nos[index // values.shape[1]], index % values.shape[1] + 1
        raise CsvParseError(
            f"non-finite cell {values.flat[index]} at row {row}, column {col}",
            row=row, col=col)
    return Grid2D(len(rows), len(rows[0]), dx, dy, values)
