import itertools
import re
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batlife import textio
from batlife.errors import EmptyFileError, SchemaError, ValidationError
from batlife.textio import (
    parse_floats,
    parse_value,
    read_columns,
    read_keys,
    read_table,
    spell,
    spell_floats,
    write_table,
)

from conftest import write_table_per_row

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# One line of text, now and then with a bare carriage return.
TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, include_characters="\r"))
VALUES = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.text(st.characters(min_codepoint=32, max_codepoint=126, include_characters="\r")
            | st.sampled_from("\n\"")),
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestTable:
    @settings(max_examples=200, deadline=None)
    @given(
        comments=st.lists(st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                                include_characters="\r\n")), max_size=3),
        columns=st.lists(TEXT.filter(lambda name: not name.startswith("#")), min_size=1,
                         max_size=4),
        data=st.data(),
    )
    def test_round_trip(self, comments, columns, data):
        rows = data.draw(st.lists(st.lists(VALUES, min_size=len(columns), max_size=len(columns)),
                                  max_size=5), label="rows")
        spelled = [[spell(v) for v in row] for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            if (any("\n" in comment for comment in comments)
                    or any("\r" in text for text in [*comments, *columns,
                                                     *itertools.chain(*spelled)])):
                # A comment is one line; the csv writer would not quote a
                # bare carriage return, and the row would end there.
                with pytest.raises(ValidationError, match="would not read back"):
                    write_table(path, comments, columns, spelled)
                assert not path.exists()
                return
            write_table(path, comments, columns, spelled)
            back_comments, header, back_rows = read_table(path)
        assert back_comments == comments
        assert header == columns
        assert back_rows == [[spell(v) for v in row] for row in rows]
        for row, back in zip(rows, back_rows):
            for value, text in zip(row, back):
                if isinstance(value, (bool, np.bool_)):
                    assert parse_value(text) == int(value)
                elif isinstance(value, (float, np.floating)):
                    assert _bits(float(parse_value(text))) == _bits(float(value))
                elif isinstance(value, int):
                    assert parse_value(text) == value
                else:
                    assert text == value

    def test_rows_beyond_one_chunk(self, tmp_path):
        rows = [[str(i), repr(i / 7)] for i in range(2 * textio._CHUNK_ROWS + 5)]
        path = tmp_path / "table.csv"
        write_table(path, ["c"], ["i", "x"], iter(rows))
        assert path.read_text() == "# c\ni,x\n" + "".join(f"{i},{x}\n" for i, x in rows)
        rows[textio._CHUNK_ROWS + 3][1] = "1\r2"
        with pytest.raises(ValidationError, match="carriage return"):
            write_table(path, ["c"], ["i", "x"], iter(rows))
        assert not path.exists()

    def test_partial_file_removed_on_any_error(self, tmp_path):
        path = tmp_path / "table.csv"
        with pytest.raises(TypeError):
            write_table(path, ["c"], ["cycle"], [["1"], [2]])
        assert not path.exists()

        def rows():
            yield ["1"]
            raise RuntimeError("lazy row failed")

        with pytest.raises(RuntimeError, match="lazy row failed"):
            write_table(path, ["c"], ["cycle"], rows())
        assert not path.exists()

    def test_failed_open_keeps_an_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "table.csv"
        path.write_text("kept\n")

        def refuse(self, *args, **kwargs):
            raise PermissionError(f"cannot open {self}")

        monkeypatch.setattr(Path, "open", refuse)
        with pytest.raises(PermissionError):
            write_table(path, ["c"], ["cycle"], [["1"]])
        monkeypatch.undo()
        assert path.read_text() == "kept\n"

    def test_comment_without_a_space(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("#a=1\n# b=2\nx\n1\n")
        assert read_table(path) == (["a=1", "b=2"], ["x"], [["1"]])

    def test_no_header_row(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(EmptyFileError):
            read_table(path)


# Fields of every kind a table holds: spelled floats and ints, empty
# fields, and text that needs quoting (or, with a carriage return, refusal).
FIELDS = st.one_of(
    FLOATS.map(spell),
    st.integers(-(10**6), 10**6).map(spell),
    st.just(""),
    st.text(st.sampled_from(["a", " ", "#", ",", '"', "\n", "\r", "\u00e9"]), max_size=4),
)
# Row counts around the chunk boundary of ``write_table``.
ROW_COUNTS = st.sampled_from([0, 1, 2, textio._CHUNK_ROWS - 1, textio._CHUNK_ROWS,
                              textio._CHUNK_ROWS + 1, 2 * textio._CHUNK_ROWS + 3])


def _same_as_csv_writer(tmp, comments, columns, rows) -> None:
    """``write_table`` writes the bytes of the csv-writer oracle, or both
    refuse and leave no file."""
    got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
    try:
        write_table_per_row(want, comments, columns, rows)
    except ValidationError as refused:
        with pytest.raises(ValidationError, match=re.escape(str(refused).partition(": ")[2])):
            write_table(got, comments, columns, rows)
        assert not got.exists() and not want.exists()
        return
    write_table(got, comments, columns, rows)
    assert got.read_bytes() == want.read_bytes()


class TestJoinedRows:
    @settings(max_examples=150, deadline=None)
    @given(
        comments=st.lists(st.text(st.sampled_from(["c", " ", "=", "\n", "\r"]), max_size=3),
                          max_size=2),
        width=st.integers(1, 6),
        count=ROW_COUNTS,
        data=st.data(),
    )
    def test_bytes_equal_the_csv_writer(self, comments, width, count, data):
        row = st.lists(FIELDS, min_size=width, max_size=width)
        columns = data.draw(row, label="columns")
        plain = data.draw(row, label="plain row")
        # A few drawn rows at drawn places in a table of one repeated row.
        rows = [plain] * count
        for _ in range(data.draw(st.integers(0, 3), label="placed") if count else 0):
            rows[data.draw(st.integers(0, count - 1), label="at")] = data.draw(row, label="row")
        with tempfile.TemporaryDirectory() as tmp:
            _same_as_csv_writer(tmp, comments, columns, rows)

    @pytest.mark.parametrize("columns, rows", [
        (["x"], [[""]]),
        (["x"], [["1"], [""], ["2"]]),
        (["x"], [[], ["1"]]),
        (["x", "y"], [["a,b", "c"]]),
        (["x", "y"], [["a", 'b"c']]),
        (["x", "y"], [["a\nb", "c"]]),
        (["x", "y"], [["", ""]]),
        (["x", "y"], [[], ["a,b", "c"]]),
        (["x", "y"], [["a", "b", "c"], ["d"]]),
        (["x", "y"], [["a", "b", "c,d"], ["e"]]),
        (["x", "y"], [["1\r2", "3"]]),
    ], ids=["lone-empty", "empty-among-rows", "no-field", "comma", "quote", "line-break",
            "two-empty", "no-field-and-comma", "ragged", "ragged-and-comma", "carriage-return"])
    def test_edge_rows(self, tmp_path, columns, rows):
        _same_as_csv_writer(tmp_path, ["c"], columns, rows)

    def test_quoting_chunk_between_joined_ones(self, tmp_path):
        rows = [[str(i), repr(i / 7)] for i in range(3 * textio._CHUNK_ROWS)]
        rows[textio._CHUNK_ROWS + 5][1] = 'q,"1'
        write_table(tmp_path / "t.csv", ["c"], ["i", "x"], rows)
        assert read_table(tmp_path / "t.csv")[2] == rows
        _same_as_csv_writer(tmp_path, ["c"], ["i", "x"], rows)


DTYPES = {"n": np.int64, "name": "U8", "x": np.float64}


class TestColumns:
    def test_typed_columns_and_their_lines(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text('# a=1\nx,skip,name,n\n1.5,not a number,"b,c",7\n\n-2e3, ?,d,+8\n')
        table = read_columns(path, DTYPES)
        assert table.comments == ["a=1"]
        assert table.values["n"].tolist() == [7, 8]
        assert table.values["name"].tolist() == ["b,c", "d"]
        assert table.values["x"].tolist() == [1.5, -2000.0]
        assert [table.where(row) for row in (0, 1)] == [f"{path} line 3", f"{path} line 5"]

    def test_header_only_gives_empty_columns(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("n,name,x\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = read_columns(path, DTYPES)
        assert all(column.size == 0 for column in table.values.values())

    @pytest.mark.parametrize("header, problem", [("n,name", "missing column 'x'"),
                                                 ("n,name,x,n", "duplicated column 'n'")])
    def test_missing_or_duplicated_column(self, tmp_path, header, problem):
        path = tmp_path / "table.csv"
        path.write_text(f"# c\n{header}\n1,a,2.0,1\n")
        with pytest.raises(SchemaError, match=f"line 2: {problem}"):
            read_columns(path, DTYPES)

    @pytest.mark.parametrize("bad", ["1,a,4.1V", "1,a", "1.0,a,2.0", "1,a,1_0", "1,a,"])
    @pytest.mark.parametrize("at", [0, 1, 5])
    def test_first_refused_line_is_named(self, tmp_path, bad, at):
        rows = ["1,a,2.0"] * 7
        rows[at] = bad
        rows[-1] = "x,a,2.0"  # a later refused line is not the one named
        path = tmp_path / "table.csv"
        path.write_text("# c\nn,name,x\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match=rf"line {at + 3}: .* in '{re.escape(bad)}'$"):
            read_columns(path, DTYPES)


class TestFloats:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(FLOATS, min_size=1, max_size=20))
    def test_inverse_of_spell_floats(self, values):
        back = parse_floats(",".join(spell_floats(values)), "here")
        assert back.tobytes() == np.array(values, dtype=float).tobytes()

    @pytest.mark.parametrize("text, reason", [
        ("nan", "nan is not a finite number"),
        ("1.0,-inf", "-inf is not a finite number"),
        ("1_0", "'1_0'"),
        ("\u0661", "'\u0661'"),
        ("1.0,x", "'x'"),
        ("1.0,,2.0", "''"),
        ("1.0 2.0", "'1.0 2.0'"),
        ("", "no numbers"),
    ])
    def test_refusals_name_the_place(self, text, reason):
        with pytest.raises(ValidationError, match=r"^m\.txt field 'y': ") as excinfo:
            parse_floats(text, "m.txt field 'y'")
        assert reason in str(excinfo.value)


class TestKeys:
    def test_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_text("# kind=x\n\n  a = 1 \n#b = 2\nc=x = y\n\n")
        assert read_keys(path, SchemaError) == {"a": "1", "c": "x = y"}

    @pytest.mark.parametrize("error", [ValidationError, SchemaError])
    def test_line_without_equals_raises_the_callers_error(self, tmp_path, error):
        path = tmp_path / "keys.txt"
        path.write_text("a = 1\nstray\n")
        with pytest.raises(error, match="line without '='"):
            read_keys(path, error)

    @pytest.mark.parametrize("error", [ValidationError, SchemaError])
    def test_missing_file_raises_the_callers_error(self, tmp_path, error):
        with pytest.raises(error):
            read_keys(tmp_path / "absent.txt", error)
