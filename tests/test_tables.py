"""The shared CSV format: one reader, one writer, one ParseError shape."""

import numpy as np
import pytest

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
