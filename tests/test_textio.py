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
from batlife.errors import DataError, SchemaError, ValidationError
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
        with pytest.raises(DataError, match="has no header row"):
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

    def test_a_row_after_a_field_spanning_lines_is_named_by_its_first_line(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text('n,name,x\n1,"a\nb",2.0\n2,c,3.0\n')
        table = read_columns(path, DTYPES)
        assert [table.where(row) for row in (0, 1)] == [f"{path} line 2", f"{path} line 4"]

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


def _read_columns_by_handle(path: Path, dtypes):
    """Oracle: ``read_columns`` with ``np.loadtxt`` given the open file
    handle, which numpy reads one line at a time: (comments, columns, head
    lines), or the ``ValidationError`` text. The handle reads with universal
    newlines, as numpy reads a path, so a line break inside quotes reads as
    ``\\n``, in a value and in the reason of a refusal; the refused line is
    found and quoted in the file's own text."""
    with path.open() as fh:
        comments, header, reader = textio._read_head(fh, path)
        head_lines = len(comments) + reader.line_num

        def parse(lines):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                return np.loadtxt(lines, dtype=list(dtypes.items()), delimiter=",", comments=None,
                                  quotechar='"', usecols=[header.index(name) for name in dtypes],
                                  ndmin=1)

        try:
            table = parse(fh)
        except ValueError as exc:
            with path.open(newline="") as again:
                lines = again.readlines()[head_lines:]
            bad = textio._first_refused(lines, parse)
            reason = str(exc).partition(" at row")[0]
            return f"{path} line {head_lines + bad + 1}: {reason} in {lines[bad].rstrip()!r}"
    return comments, {name: _column_bits(table[name]) for name in dtypes}, head_lines


def _column_bits(column: np.ndarray):
    return column.dtype.str, column.tobytes()


# Field spellings: one a column's dtype reads, or one it may refuse.
_WORD = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters='",'),
                max_size=9)
_QUOTED = st.text(st.characters(min_codepoint=32, max_codepoint=126, include_characters="\n"),
                  max_size=9).map(lambda text: '"' + text.replace('"', '""') + '"')
_REFUSED = st.sampled_from(["4.1V", "1_0", "", " ", "nan", "-inf", "1.5", "x", '"1', '"2"x'])
_FIELDS = {
    "n": st.one_of(st.integers(-(10**12), 10**12).map(str), st.integers(0, 9).map('"{}"'.format)),
    "name": st.one_of(_WORD, _QUOTED),
    "x": st.one_of(FLOATS.map(repr), FLOATS.map('"{!r}"'.format)),
    "skip": st.one_of(_WORD, _QUOTED, _REFUSED),
}


@st.composite
def _column_files(draw):
    """The text of a commented CSV: comments (some holding a quote), a header
    of the three read columns and a skipped one in any order (a name now
    and then quoted, one with a line break inside its quotes), and a body
    of rows with ``\\n``, ``\\r\\n`` or ``\\r`` line ends, blank lines,
    quoted fields, short rows and refused fields; or no body at all."""
    comments = draw(st.lists(st.sampled_from(["# a=1", '# say "hi', "#", "# x,y"]), max_size=2))
    columns = draw(st.permutations(["n", "name", "x", "skip"]))
    header = [draw(st.sampled_from([name, f'"{name}"'])) if name != "skip"
              else draw(st.sampled_from(["skip", '"sk,ip"', '"sk\nip"'])) for name in columns]
    lines = [*comments, ",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "short", "refused"]))
        fields = [draw(_FIELDS[name]) for name in columns]
        if kind == "refused":
            fields[draw(st.integers(0, 3))] = draw(_REFUSED)
        elif kind == "short":
            fields = fields[:draw(st.integers(1, 3))]
        lines.append("" if kind == "blank" else ",".join(fields))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestColumnsFromPath:
    """``read_columns`` (``np.loadtxt`` on the path, in chunks) against the
    parse of the open handle, line by line."""

    @settings(max_examples=300, deadline=None)
    @given(text=_column_files())
    def test_same_columns_or_refusal_as_the_handle_parse(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_text(text, newline="")
            expected = _read_columns_by_handle(path, DTYPES)
            try:
                table = read_columns(path, DTYPES)
                got = (table.comments, {name: _column_bits(table.values[name]) for name in DTYPES},
                       table.head_lines)
            except ValidationError as exc:
                got = str(exc)
            assert got == expected

    def test_line_break_inside_quotes_reads_as_newline(self, tmp_path):
        # The path is read with universal newlines; the handle kept the text.
        path = tmp_path / "table.csv"
        path.write_text('n,name,x\n1,"a\r\nb",2.0\n2,"c\rd",3.0\n', newline="")
        assert read_columns(path, DTYPES).values["name"].tolist() == ["a\nb", "c\nd"]


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
