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
thereafter. CSV stores full doubles with 17 significant digits.
"""

import math
import struct

import numpy as np

from .errors import CsvParseError, FormatError
from .grid_core import Grid2D

MAGIC = b"FGRD"
VERSION = 1
_HEADER = struct.Struct("<4sHIIdd")  # 30 bytes


def write_fgrd(grid, path):
    payload = grid.values.astype("<f4").tobytes()
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
    return Grid2D(height, width, dx, dy,
                  values.astype(np.float64).reshape(height, width))


def write_csv(grid, path):
    with open(path, "w") as fh:
        for row in grid.values:
            fh.write(",".join(format(v, ".17g") for v in row))
            fh.write("\n")


def read_csv(path, dx=1.0, dy=1.0):
    rows = []
    with open(path) as fh:
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
                    raise CsvParseError(
                        f"non-numeric cell {cell!r} at row {line_no}, column {col_no}",
                        row=line_no, col=col_no) from None
            if rows and len(parsed) != len(rows[0]):
                raise CsvParseError(
                    f"row {line_no} has {len(parsed)} cells, expected {len(rows[0])}",
                    row=line_no)
            rows.append(parsed)
    if not rows:
        raise CsvParseError("empty CSV grid", row=1)
    return Grid2D(len(rows), len(rows[0]), dx, dy, np.array(rows))
