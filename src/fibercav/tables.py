"""The CSV format of spectra, pull traces and plot data: one header line
naming the columns, then one line of comma-separated numbers per sample.
"""

from __future__ import annotations

from array import array
from pathlib import Path

import numpy as np

from .errors import ParseError


def _bad_rows(path: Path, problems: dict) -> ParseError:
    rows = [f"row {line}: {'; '.join(reasons)}" for line, reasons in sorted(problems.items())]
    return ParseError(
        f"{path}: {len(rows)} bad row(s), first {rows[0]}",
        path=str(path), line=min(problems), rows=rows,
    )


def read_columns(path, headers, bounded=()):
    """Read a table whose header is one of ``headers``; return ``(header, columns)``.

    ``columns`` holds one float array per column.  Lines may end in
    ``\\n`` or ``\\r\\n``, and blank lines are skipped.  Every bad row is
    reported in one :class:`ParseError` with details ``{"path", "line",
    "rows"}``: ``line`` is the first bad 1-based line of the file, and
    ``rows`` holds one ``"row N: reason"`` per bad line, in line order.  A
    bad row has the wrong field count, a non-numeric or non-finite field, a
    first column not above the previous row's, or a column named in
    ``bounded`` outside [0, 1].  An unknown header is a bad row too.  An
    unreadable or empty file, or one with fewer than two data rows, raises
    with details ``{"path"}`` only.
    """
    path = Path(path)
    values: list[float] = []
    lines = array("q")  # the file line of each numeric row
    problems: dict[int, list[str]] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            numbered = ((n, line) for n, line in enumerate(handle, start=1) if line.strip())
            line_no, line = next(numbered, (0, ""))
            if not line_no:
                raise ParseError(f"{path}: empty file", path=str(path))
            header = tuple(part.strip() for part in line.split(","))
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
