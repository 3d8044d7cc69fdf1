"""The CSV format of spectra, pull traces and plot data: one header line
naming the columns, then one line of comma-separated numbers per sample.
"""

from __future__ import annotations

import io
from array import array
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ParseError

#: Whitespace to numpy's number parser but not to ``float``: a field
#: holding one of these is read by the row loop, which rejects it.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _bad_rows(path: Path, problems: dict) -> ParseError:
    rows = [f"row {line}: {'; '.join(reasons)}" for line, reasons in sorted(problems.items())]
    return ParseError(
        f"{path}: {len(rows)} bad row(s), first {rows[0]}",
        path=str(path), line=min(problems), rows=rows,
    )


def read_columns(path, headers, bounded=()):
    """Read a table whose header is one of ``headers``; return ``(header, columns)``.

    ``columns`` holds one float array per column.  Lines may end in
    ``\\n``, ``\\r\\n`` or ``\\r``, and blank lines are skipped.  Every bad
    row is reported in one :class:`ParseError` with details ``{"path",
    "line", "rows"}``: ``line`` is the first bad 1-based line of the file, and
    ``rows`` holds one ``"row N: reason"`` per bad line, in line order.  A
    bad row has the wrong field count, a non-numeric or non-finite field, a
    first column not above the previous row's, or a column named in
    ``bounded`` outside [0, 1].  An unknown header is a bad row too.  An
    unreadable or empty file, or one with fewer than two data rows, raises
    with details ``{"path"}`` only.

    The body is parsed in one :func:`numpy.loadtxt` call.  A file that
    call or the checks on its array refuse is re-read row by row, which
    names its bad rows or accepts it, so both paths give the same result.
    """
    path = Path(path)
    header, data = _read_array(path, headers)
    if data is not None and _accepted(header, data, bounded):
        return header, tuple(data[:, k] for k in range(len(header)))
    return _read_rows(path, headers, bounded)


def _header(line: str) -> tuple:
    return tuple(part.strip() for part in line.split(","))


def _read_array(path: Path, headers):
    """``(header, data)`` from one ``loadtxt`` pass; ``data`` is None when the
    file needs the row loop."""
    try:
        raw = path.read_bytes()
        if any(separator in raw for separator in _SEPARATORS):
            return None, None
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8") as handle:
            lines = (line for line in handle if line.strip())
            header = _header(next(lines, ""))
            first = next(lines, None)
            if header not in headers or first is None:
                return None, None  # leaves loadtxt no empty body to warn about
            data = np.loadtxt(chain((first,), handle), delimiter=",", comments=None,
                              ndmin=2, dtype=np.float64)
    except (ValueError, OSError, UnicodeDecodeError):
        return None, None
    return header, data


def _accepted(header: tuple, data: np.ndarray, bounded) -> bool:
    """Whether the row loop would accept ``data`` as it stands."""
    if data.shape[1] != len(header) or len(data) < 2 or not np.isfinite(data).all():
        return False
    in_range = all(np.all((data[:, k] >= 0.0) & (data[:, k] <= 1.0))
                   for k, name in enumerate(header) if name in bounded)
    return in_range and bool(np.all(np.diff(data[:, 0]) > 0.0))


def _read_rows(path: Path, headers, bounded):
    """Read the table line by line, naming every bad row (see :func:`read_columns`)."""
    values: list[float] = []
    lines = array("q")  # the file line of each numeric row
    problems: dict[int, list[str]] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            numbered = ((n, line) for n, line in enumerate(handle, start=1) if line.strip())
            line_no, line = next(numbered, (0, ""))
            if not line_no:
                raise ParseError(f"{path}: empty file", path=str(path))
            header = _header(line)
            if header not in headers:
                expected = " or ".join(",".join(h) for h in headers)
                problems[line_no] = [f"unrecognized header {line.strip()!r}; expected {expected}"]
                raise _bad_rows(path, problems)
            for line_no, line in numbered:
                parts = line.split(",")
                if len(parts) != len(header):
                    problems[line_no] = [f"expected {len(header)} fields, got {len(parts)}"]
                    continue
                try:
                    values.extend([float(part) for part in parts])
                except ValueError:
                    problems[line_no] = [f"non-numeric field in {line.strip()!r}"]
                    continue
                lines.append(line_no)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}", path=str(path)) from exc

    data = np.array(values).reshape(-1, len(header))
    line_of = np.frombuffer(lines, dtype=np.int64)
    finite = np.isfinite(data).all(axis=1)
    for line_no in line_of[~finite]:
        problems[int(line_no)] = ["non-finite value"]
    good, line_of = data[finite], line_of[finite]
    checks = [(0, np.diff(good[:, 0], prepend=-np.inf) <= 0.0, "not increasing")]
    checks += [(k, (good[:, k] < 0.0) | (good[:, k] > 1.0), "outside [0, 1]")
               for k, name in enumerate(header) if name in bounded]
    for column, bad, reason in checks:
        for k in np.nonzero(bad)[0]:
            problems.setdefault(int(line_of[k]), []).append(
                f"{header[column]} {float(good[k, column])!r} {reason}"
            )
    if problems:
        raise _bad_rows(path, problems)
    if len(data) < 2:
        raise ParseError(f"{path}: need at least two data rows, got {len(data)}", path=str(path))
    return header, tuple(data[:, k] for k in range(len(header)))


def write_columns(path, header, columns) -> None:
    """Write ``header``, then one row per sample of the equal-length ``columns``.

    Values are rendered with ``repr``, so floats read back bit for bit and
    integer columns stay integers; lines end in ``\\n``.
    """
    rows = zip(*(map(repr, np.asarray(column).tolist()) for column in columns))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([",".join(header), *map(",".join, rows)]) + "\n")
