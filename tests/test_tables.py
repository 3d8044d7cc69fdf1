"""The shared CSV format: one reader, one writer, one ParseError shape."""

import warnings

import numpy as np
import pytest

from fibercav import tables
from fibercav.cavity import parse_spectrum_csv
from fibercav.errors import ParseError
from fibercav.pulling import load_pull_trace, synthesize_pull_trace
from fibercav.tables import read_columns, write_columns

HEADERS = (("x", "a", "b"), ("x", "a"))


def test_write_is_lf_with_repr_values_and_integer_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_columns(path, ("x", "y", "k"), (np.array([0.1, 1e-17]), [2.5, -0.0], np.array([0, 3])))
    assert path.read_bytes() == b"x,y,k\n0.1,2.5,0\n1e-17,-0.0,3\n"


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    columns = (np.cumsum(rng.uniform(0.1, 1.0, 500)), rng.uniform(size=500), rng.normal(size=500))
    path = tmp_path / "t.csv"
    write_columns(path, HEADERS[0], columns)
    header, loaded = read_columns(path, HEADERS)
    assert header == HEADERS[0]
    for original, back in zip(columns, loaded):
        np.testing.assert_array_equal(back, original)


def test_crlf_pull_trace_loads_bit_exactly(tmp_path):
    # the CRLF layout of pull traces written by earlier versions
    trace = synthesize_pull_trace("ramp", samples=50, noise=1e-3, seed=4)
    rows = ["time_s,loss_primary,loss_reference"] + [
        f"{float(t)!r},{float(p)!r},{float(r)!r}"
        for t, p, r in zip(trace.time_s, trace.loss_primary, trace.loss_reference)
    ]
    path = tmp_path / "old.csv"
    path.write_bytes(("\r\n".join(rows) + "\r\n").encode())
    assert load_pull_trace(path) == trace


def test_blank_lines_skipped_and_lines_counted_as_in_the_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\n\nx,a\n\n0.0,0.5\n\n1.0,0.25\n2.0,nan\n")
    with pytest.raises(ParseError) as info:
        read_columns(path, HEADERS)
    assert info.value.details == {
        "path": str(path), "line": 8, "rows": ["row 8: non-finite value"],
    }
    path.write_text("\n\nx,a\n\n0.0,0.5\n\n1.0,0.25\n")
    _, (x, a) = read_columns(path, HEADERS)
    np.testing.assert_array_equal(x, [0.0, 1.0])


def test_spectrum_lists_every_bad_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "freq_offset_hz,transmission\n"
        "0.0,0.1\n"
        "1.0,abc\n"        # non-numeric        -> line 3
        "2.0,0.2,0.3\n"    # wrong field count  -> line 4
        "3.0,0.2\n"
        "2.5,0.3\n"        # not increasing     -> line 6
        "4.0,0.4\n"
    )
    with pytest.raises(ParseError) as info:
        parse_spectrum_csv(path)
    assert info.value.details == {
        "path": str(path),
        "line": 3,
        "rows": [
            "row 3: non-numeric field in '1.0,abc'",
            "row 4: expected 2 fields, got 3",
            "row 6: freq_offset_hz 2.5 not increasing",
        ],
    }


def test_one_entry_per_bad_row_in_line_order(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,a,b\n0.0,0.5,0.5\n-1.0,1.5,2.0\n1.0,inf,0.5\n")
    with pytest.raises(ParseError) as info:
        read_columns(path, HEADERS, bounded=("a", "b"))
    assert info.value.details["rows"] == [
        "row 3: x -1.0 not increasing; a 1.5 outside [0, 1]; b 2.0 outside [0, 1]",
        "row 4: non-finite value",
    ]


def test_unknown_header_is_line_one(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("seconds,loss\n0.0,0.01\n1.0,0.02\n")
    with pytest.raises(ParseError) as info:
        read_columns(path, HEADERS)
    assert info.value.details["line"] == 1
    assert info.value.details["rows"][0].startswith("row 1: unrecognized header 'seconds,loss'")


@pytest.mark.parametrize("text", ["", "\n \n", "x,a\n", "x,a\n\n0.0,0.5\n"],
                         ids=["empty", "blank", "header-only", "one-row"])
@pytest.mark.parametrize("reader", [parse_spectrum_csv, load_pull_trace, None],
                         ids=["spectrum", "pull", "table"])
def test_empty_header_only_and_single_row_files_rejected(tmp_path, text, reader):
    path = tmp_path / "t.csv"
    if reader is parse_spectrum_csv:
        text = text.replace("x,a", "freq_offset_hz,transmission")
    elif reader is load_pull_trace:
        text = text.replace("x,a", "time_s,loss_primary")
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        reader(path) if reader else read_columns(path, HEADERS)
    assert info.value.details == {"path": str(path)}


@pytest.mark.parametrize("content", [None, b"x,a\n0.0,\xff\n1.0,0.5\n"], ids=["missing", "binary"])
def test_unreadable_file(tmp_path, content):
    path = tmp_path / "t.csv"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ParseError) as info:
        read_columns(path, HEADERS)
    assert info.value.details == {"path": str(path)}


# ----------------------------------------------------------------------
# The one-pass parse and the row loop give the same result


def _outcome(reader, path, bounded):
    """A reader's result as comparable data: the columns' bytes, or the error."""
    try:
        header, columns = reader(path, HEADERS, bounded)
    except ParseError as exc:
        return ("error", exc.message, exc.details)
    return ("ok", header, [(c.dtype.str, c.shape, c.tobytes()) for c in columns])


EQUIVALENCE_CASES = {
    "crlf": b"x,a\r\n0.0,0.5\r\n1.0,0.25\r\n",
    "lone-cr": b"x,a\r0.0,0.5\r1.0,0.25\r",
    "blank-lines": b"\n\nx,a\n\n0.0,0.5\n\n1.0,0.25\n\n",
    "whitespace-only-lines": b" \nx,a\n\t\n0.0,0.5\n  \n1.0,0.25\n",
    "hash-in-field": b"x,a\n0.0,0.5 # note\n1.0,0.25\n",
    "hash-line": b"x,a\n# comment\n0.0,0.5\n1.0,0.25\n",
    "underscore-digits": b"x,a\n0.0,1_0\n1.0,0.25\n",
    "fullwidth-digit": "x,a\n0.0,\uff11\n1.0,0.25\n".encode(),
    "padded-fields": b"x,a\n 0.0 , 0.5 \n\t1.0,0.25\t\n",
    "unicode-space-padding": "x,a\n0.0,\u20030.5\xa0\n1.0,0.25\n".encode(),
    "unit-separator": b"x,a\n0.0,0.5\x1f\n1.0,0.25\n",
    "trailing-comma": b"x,a\n0.0,0.5,\n1.0,0.25,\n",
    "wrong-field-count": b"x,a\n0.0,0.5,0.1\n1.0,0.25\n",
    "every-row-too-wide": b"x,a\n0.0,0.5,0.1\n1.0,0.25,0.2\n",
    "every-row-too-narrow": b"x,a,b\n0.0,0.5\n1.0,0.25\n",
    "nan-row": b"x,a\n0.0,0.5\n1.0,nan\n2.0,0.25\n",
    "inf-row": b"x,a\n0.0,-inf\n1.0,0.5\n2.0,0.25\n",
    "overflow-row": b"x,a\n0.0,1e500\n1.0,0.5\n",
    "non-increasing-row": b"x,a\n0.0,0.5\n2.0,0.25\n1.0,0.3\n3.0,0.1\n",
    "repeated-first-column": b"x,a\n0.0,0.5\n0.0,0.25\n",
    "out-of-range-bounded": b"x,a,b\n0.0,0.5,0.5\n1.0,1.5,-0.0\n2.0,0.25,-1e-300\n",
    "unknown-header": b"seconds,loss\n0.0,0.01\n1.0,0.02\n",
    "header-only": b"x,a\n",
    "one-row": b"x,a\n\n0.0,0.5\n",
    "empty": b"",
    "blank-only": b"\n \n",
    "non-utf8": b"x,a\n0.0,\xff\n1.0,0.5\n",
    "utf8-bom": b"\xef\xbb\xbfx,a\n0.0,0.5\n1.0,0.25\n",
    "clean-three-columns": b"x,a,b\n-0.0,0.0,1.0\n5e-324,1e-17,0.5\n1e300,1.0,0.0\n",
}


@pytest.mark.parametrize("bounded", [(), ("a", "b")], ids=["free", "bounded"])
@pytest.mark.parametrize("name", EQUIVALENCE_CASES)
def test_one_pass_matches_the_row_loop(tmp_path, name, bounded):
    path = tmp_path / "t.csv"
    path.write_bytes(EQUIVALENCE_CASES[name])
    assert _outcome(read_columns, path, bounded) == _outcome(tables._read_rows, path, bounded)


def test_missing_file_matches_the_row_loop(tmp_path):
    path = tmp_path / "absent.csv"
    assert _outcome(read_columns, path, ()) == _outcome(tables._read_rows, path, ())


@pytest.mark.parametrize("name", ["crlf", "lone-cr", "blank-lines", "padded-fields",
                                  "unicode-space-padding", "clean-three-columns"])
def test_clean_files_skip_the_row_loop(tmp_path, monkeypatch, name):
    path = tmp_path / "t.csv"
    path.write_bytes(EQUIVALENCE_CASES[name])
    expected = _outcome(tables._read_rows, path, ())
    monkeypatch.setattr(tables, "_read_rows", None)  # any call would fail
    assert _outcome(read_columns, path, ()) == expected


def test_round_trip_is_bit_exact_on_arbitrary_doubles(tmp_path, monkeypatch):
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64, endpoint=False).view(np.float64)
    extremes = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072009e-308,
                         2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308])
    values = np.concatenate([extremes, bits[np.isfinite(bits)]])
    first = np.unique(values)  # sorted, and 0.0 == -0.0 keeps one zero
    columns = (first, rng.permutation(values)[:first.size], values[:first.size])
    path = tmp_path / "t.csv"
    write_columns(path, HEADERS[0], columns)
    monkeypatch.setattr(tables, "_read_rows", None)  # the one-pass parse reads it all
    _, loaded = read_columns(path, HEADERS)
    for original, back in zip(columns, loaded):
        assert back.dtype == np.float64
        assert back.tobytes() == original.tobytes()


@pytest.mark.parametrize("text", ["", "x,a\n", "x,a\n\n"], ids=["empty", "header-only", "header-blank"])
def test_short_files_raise_without_warnings(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError):
            read_columns(path, HEADERS)


def test_one_pass_matches_the_row_loop_on_generated_text(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    number = st.floats(min_value=-0.25, max_value=1.25).map(repr)
    padded = st.tuples(st.sampled_from(["", " ", "\t", "\u2003", "\x1c"]), number,
                       st.sampled_from(["", " ", "\x1f", " # c"])).map("".join)
    odd = st.text(alphabet="0123456789.-+eE_ nai\t#\x1c\uff11\u2003", max_size=6)

    @st.composite
    def table(draw):
        """A header and rows that mostly parse, with a few odd fields and lines."""
        header = draw(st.sampled_from([("x", "a"), ("x", "a", "b"), ("x", " a"), ("y", "a")]))
        rows = []
        for k in range(draw(st.integers(0, 5))):
            fields = [f"{k}.5", *draw(st.lists(number, min_size=len(header) - 1,
                                               max_size=len(header) - 1))]
            if draw(st.integers(0, 3)) == 0:
                fields[draw(st.integers(0, len(fields) - 1))] = draw(st.one_of(padded, odd))
            rows.append(",".join(fields))
            if draw(st.integers(0, 5)) == 0:
                rows.append(draw(st.sampled_from(["", " ", "\t", "1.0", "0.5,0.5,0.5,0.5"])))
        return ",".join(header), rows

    path = tmp_path / "t.csv"

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(text=table(), end=st.sampled_from(["\n", "\r\n", "\r"]),
                      bounded=st.sampled_from([(), ("a", "b")]))
    def check(text, end, bounded):
        header, rows = text
        path.write_bytes(end.join([header, *rows, ""]).encode())
        assert _outcome(read_columns, path, bounded) == _outcome(tables._read_rows, path, bounded)

    check()
