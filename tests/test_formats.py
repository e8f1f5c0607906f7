import struct
import warnings

import numpy as np
import pytest

from fluxgrid import Grid2D, read_csv, read_fgrd, write_csv, write_fgrd
from fluxgrid.cli import main
from fluxgrid.errors import CsvParseError, FormatError


def grid(values, dx=1.0, dy=1.0):
    return Grid2D.from_values(np.asarray(values, dtype=float), dx, dy)


class TestFgrd:
    def test_file_size_2x3(self, tmp_path):
        path = tmp_path / "g.fgrd"
        write_fgrd(grid(np.arange(6.0).reshape(2, 3)), path)
        # 30-byte header plus 6 float32 values
        assert path.stat().st_size == 54

    def test_header_fields(self, tmp_path):
        path = tmp_path / "g.fgrd"
        write_fgrd(grid(np.zeros((4, 5)), dx=0.25, dy=2.0), path)
        magic, version, h, w, dx, dy = struct.unpack_from(
            "<4sHIIdd", path.read_bytes(), 0)
        assert magic == b"FGRD"
        assert version == 1
        assert (h, w) == (4, 5)
        assert (dx, dy) == (0.25, 2.0)

    def test_roundtrip_32bit_stable(self, tmp_path):
        rng = np.random.default_rng(3)
        g = grid(rng.normal(size=(8, 8)), dx=0.5, dy=0.5)
        p1 = tmp_path / "a.fgrd"
        p2 = tmp_path / "b.fgrd"
        write_fgrd(g, p1)
        once = read_fgrd(p1)
        write_fgrd(once, p2)
        twice = read_fgrd(p2)
        # first write truncates to f32; after that the bytes are fixed
        assert np.array_equal(once.values, twice.values)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_allclose(once.values, g.values, rtol=1e-6)
        assert (once.dx, once.dy) == (0.5, 0.5)

    def test_exact_for_f32_values(self, tmp_path):
        vals = np.array([[1.0, 0.5], [-2.25, 1024.0]])
        path = tmp_path / "g.fgrd"
        write_fgrd(grid(vals), path)
        assert np.array_equal(read_fgrd(path).values, vals)

    def test_truncated_header_offset(self, tmp_path):
        path = tmp_path / "short.fgrd"
        path.write_bytes(b"FGRD" + b"\x00" * 10)
        with pytest.raises(FormatError) as exc:
            read_fgrd(path)
        assert exc.value.offset == 14

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fgrd"
        good = tmp_path / "good.fgrd"
        write_fgrd(grid(np.zeros((2, 2))), good)
        data = bytearray(good.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic") as exc:
            read_fgrd(path)
        assert exc.value.offset == 0

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.fgrd"
        good = tmp_path / "good.fgrd"
        write_fgrd(grid(np.zeros((2, 2))), good)
        data = bytearray(good.read_bytes())
        data[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version") as exc:
            read_fgrd(path)
        assert exc.value.offset == 4

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "cut.fgrd"
        good = tmp_path / "good.fgrd"
        write_fgrd(grid(np.zeros((2, 3))), good)
        path.write_bytes(good.read_bytes()[:-4])
        with pytest.raises(FormatError) as exc:
            read_fgrd(path)
        assert exc.value.offset == 50

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_fgrd(tmp_path / "nope.fgrd")

    @pytest.mark.parametrize("name, offset", [("dx", 14), ("dy", 22)])
    @pytest.mark.parametrize("spacing", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_spacing_offset(self, tmp_path, name, offset, spacing):
        path = tmp_path / "g.fgrd"
        write_fgrd(grid(np.zeros((2, 2))), path)
        data = bytearray(path.read_bytes())
        data[offset:offset + 8] = struct.pack("<d", spacing)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"{name}=.* at byte {offset}") as exc:
            read_fgrd(path)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_payload_offset(self, tmp_path, bad):
        path = tmp_path / "g.fgrd"
        write_fgrd(grid(np.zeros((2, 3))), path)
        data = bytearray(path.read_bytes())
        data[30 + 4 * 4:30 + 4 * 6] = struct.pack("<2f", bad, float("nan"))  # (1, 1), (1, 2)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="at byte 46") as exc:
            read_fgrd(path)
        assert exc.value.offset == 46

    @pytest.mark.parametrize("height, width, offset", [(0, 3, 6), (2, 0, 10), (0, 0, 6)])
    def test_zero_dims_offset(self, tmp_path, height, width, offset):
        path = tmp_path / "g.fgrd"
        path.write_bytes(struct.pack("<4sHIIdd", b"FGRD", 1, height, width, 1.0, 1.0))
        with pytest.raises(FormatError, match=f"=0 at byte {offset}") as exc:
            read_fgrd(path)
        assert exc.value.offset == offset

    def test_write_beyond_f32_makes_no_file(self, tmp_path):
        path = tmp_path / "g.fgrd"
        values = np.zeros((2, 3))
        values[1, 2] = -1e39
        values[1, 1] = 3e38  # within range
        with pytest.raises(FormatError, match=r"-1e\+39 at index \(1, 2\)") as exc:
            write_fgrd(grid(values), path)
        assert exc.value.offset == 30 + 4 * 5
        assert not path.exists()


class TestCsv:
    def test_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(7)
        g = grid(rng.normal(size=(5, 4)))
        path = tmp_path / "g.csv"
        write_csv(g, path)
        back = read_csv(path)
        # 17 significant digits reproduce doubles exactly
        assert np.array_equal(back.values, g.values)

    def test_spacing_from_caller(self, tmp_path):
        path = tmp_path / "g.csv"
        write_csv(grid(np.ones((2, 2))), path)
        back = read_csv(path, dx=0.1, dy=0.2)
        assert (back.dx, back.dy) == (0.1, 0.2)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(CsvParseError) as exc:
            read_csv(path)
        assert exc.value.row == 2

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(CsvParseError, match="oops") as exc:
            read_csv(path)
        assert (exc.value.row, exc.value.col) == (2, 2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvParseError):
            read_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1,2\n\n3,4\n\n")
        back = read_csv(path)
        assert np.array_equal(back.values, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_nonfinite_cell(self, tmp_path, cell):
        path = tmp_path / "g.csv"
        path.write_text(f"1,2\n\n3,{cell}\n")
        with pytest.raises(CsvParseError, match="row 3, column 2") as exc:
            read_csv(path)
        assert (exc.value.row, exc.value.col) == (3, 2)

    @pytest.mark.parametrize("text, expected", [
        ("1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),  # whitespace-only line
        ("\n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        (" 1 ,\t2\n3 , 4 \n", [[1.0, 2.0], [3.0, 4.0]]),
        ("+1.5,.5\n5.,-0\n", [[1.5, 0.5], [5.0, -0.0]]),
        ("1_0,2\n", [[10.0, 2.0]]),
        ("\u0661,\u0662\u0663\n", [[1.0, 23.0]]),  # Arabic-Indic digits
        ("1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),  # no final newline
        ("7\n", [[7.0]]),
        ("1,2,3\n", [[1.0, 2.0, 3.0]]),
    ])
    def test_accepted_text(self, tmp_path, text, expected):
        path = tmp_path / "g.csv"
        path.write_bytes(text.encode("utf-8"))
        back = read_csv(path)
        expected = np.array(expected)
        assert back.values.shape == expected.shape
        # bitwise, so -0 stays negative
        assert back.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text, message, row, col", [
        ("1,,2\n", "non-numeric cell '' at row 1, column 2", 1, 2),
        ("1,2,\n", "non-numeric cell '' at row 1, column 3", 1, 3),
        ("#c\n1\n", "non-numeric cell '#c' at row 1, column 1", 1, 1),
        ("1,2\n#c\n", "non-numeric cell '#c' at row 2, column 1", 2, 1),
        ("\ufeff1,2\n", "non-numeric cell '\\ufeff1' at row 1, column 1", 1, 1),
        ('"1",2\n', "non-numeric cell '\"1\"' at row 1, column 1", 1, 1),
        ("0x10\n", "non-numeric cell '0x10' at row 1, column 1", 1, 1),
        ("1;2\n", "non-numeric cell '1;2' at row 1, column 1", 1, 1),
        ("1e 5\n", "non-numeric cell '1e 5' at row 1, column 1", 1, 1),
        ("1,2\n3,4,5\n", "row 2 has 3 cells, expected 2", 2, None),
    ])
    def test_rejected_text(self, tmp_path, text, message, row, col):
        path = tmp_path / "g.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(CsvParseError) as exc:
            read_csv(path)
        assert str(exc.value) == message
        assert (exc.value.row, exc.value.col) == (row, col)
        assert main(["ralsd", str(path)]) == 1

    @pytest.mark.parametrize("data, message, row, col", [
        (b"1,2\n\xff,3\n", "non-utf-8 cell b'\\xff' at row 2, column 1", 2, 1),
        (b"1,2\n3,4\xfe\xff\n", "non-utf-8 cell b'4\\xfe\\xff' at row 2, column 2", 2, 2),
        (b"1,\xc3(\n", "non-utf-8 cell b'\\xc3(' at row 1, column 2", 1, 2),  # cut sequence
        (b"1,2\r\n\r\n3,\xe9\r\n", "non-utf-8 cell b'\\xe9' at row 3, column 2", 3, 2),
        (b"1,2\n" * 3000 + b"\x80,1\n", "non-utf-8 cell b'\\x80' at row 3001, column 1",
         3001, 1),
    ], ids=["ff", "fe-ff", "cut-sequence", "crlf-latin1", "row-3001"])
    def test_undecodable_byte(self, tmp_path, data, message, row, col):
        path = tmp_path / "g.csv"
        path.write_bytes(data)
        with pytest.raises(CsvParseError) as exc:
            read_csv(path)
        assert str(exc.value) == message
        assert (exc.value.row, exc.value.col) == (row, col)

    @pytest.mark.parametrize("text", ["", "\n\n", " \n\t\n"])
    def test_empty_raises_without_warning(self, tmp_path, text):
        path = tmp_path / "g.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvParseError, match="^empty CSV grid$") as exc:
                read_csv(path)
        assert (exc.value.row, exc.value.col) == (1, None)

    def test_roundtrip_300x257_bitwise(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(300, 257)) * 10.0 ** rng.integers(-300, 300, size=(300, 257))
        path = tmp_path / "g.csv"
        write_csv(grid(values), path)
        assert read_csv(path).values.tobytes() == values.tobytes()

    def test_write_matches_per_value_format(self, tmp_path):
        values = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                           [0.1, -2.5, 1e-300]])
        path = tmp_path / "g.csv"
        write_csv(grid(values), path)
        expected = "".join(",".join(format(v, ".17g") for v in row) + "\n"
                           for row in values)
        assert path.read_bytes() == expected.encode("ascii")
