"""Span and count recorder for the traced benchmark runs.

The recorder wraps public functions of the fibercav modules as their
callers see them (``fibercav.cli.parse_spectrum_csv`` is the name the CLI
handlers call, ``fibercav.fitting.fit_lorentzian`` the one
``analyze_spectrum`` calls).  Each wrapped call becomes a span with a
name, start, end, parent span and operation id; counts are recorded at
the same boundaries.  Spans stay in memory and are written out once, when
the traced process ends.

Nothing here changes the program: wrappers are installed at run time from
the benchmark's own files, only in traced runs.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path


def _count_rows_parsed(tracer, result, args, kwargs):
    tracer.add("cavity.rows_parsed", len(result.frequency_hz))


def _count_rows_written(tracer, result, args, kwargs):
    tracer.add("cavity.rows_written", len(args[0].frequency_hz))


def _count_pull_rows(tracer, result, args, kwargs):
    tracer.add("pulling.rows_parsed", len(result))


def _count_candidates(tracer, result, args, kwargs):
    found = int(result[0].size)
    tracer.add("fitting.candidates", found)
    tracer.maximum("fitting.candidates_max", found)


def _count_lm(tracer, result, args, kwargs):
    tracer.add("fitting.fit_lorentzian_calls", 1)
    tracer.add("fitting.lm_iterations", result.iterations)


def _count_peaks(tracer, result, args, kwargs):
    tracer.add("fitting.peaks_fitted", len(result.peaks.peaks))


def _count_bytes_hashed(tracer, result, args, kwargs):
    tracer.add("records.bytes_hashed", os.path.getsize(args[0]))


def _count_characteristic(tracer, result, args, kwargs):
    tracer.add("modes.characteristic_evals", 1)


# (module, attribute, span name, counter, record a span?)
# The characteristic function runs hundreds of times per solve, so only
# its calls are counted; a span each would distort the solve it sits in.
WRAPPED = (
    ("fibercav.cli", "run_pipeline", "cli.run_pipeline", None, True),
    ("fibercav.cli", "parse_spectrum_csv", "cavity.parse_spectrum_csv", _count_rows_parsed, True),
    ("fibercav.cli", "write_spectrum_csv", "cavity.write_spectrum_csv", _count_rows_written, True),
    ("fibercav.cli", "cavity_spectrum", "cavity.cavity_spectrum", None, True),
    ("fibercav.cli", "on_resonance_values", "cavity.on_resonance_values", None, True),
    ("fibercav.cli", "analyze_spectrum", "fitting.analyze_spectrum", _count_peaks, True),
    ("fibercav.fitting", "analyze_spectrum", "fitting.analyze_spectrum", _count_peaks, True),
    ("fibercav.fitting", "find_peaks", "fitting.find_peaks", _count_candidates, True),
    ("fibercav.fitting", "fit_lorentzian", "fitting.fit_lorentzian", _count_lm, True),
    ("fibercav.cli", "evaluate_fit", "fitting.evaluate_fit", None, True),
    ("fibercav.cli", "load_pull_trace", "pulling.load_pull_trace", _count_pull_rows, True),
    ("fibercav.cli", "classify_flame", "pulling.classify_flame", None, True),
    ("fibercav.cli", "fit_loss_growth", "pulling.fit_loss_growth", None, True),
    ("fibercav.cli", "solve_guided_mode", "modes.solve_guided_mode", None, True),
    ("fibercav.modes", "solve_guided_mode", "modes.solve_guided_mode", None, True),
    ("fibercav.modes", "solve_he11", "modes.solve_he11", None, True),
    ("fibercav.modes", "effective_mode_area", "modes.effective_mode_area", None, True),
    ("fibercav.modes", "he11_characteristic", "modes.he11_characteristic",
     _count_characteristic, False),
    ("fibercav.cli", "file_digest", "records.file_digest", _count_bytes_hashed, True),
    ("fibercav.cli", "make_run_record", "records.make_run_record", None, True),
    ("fibercav.cli", "write_run_record", "records.write_run_record", None, True),
    ("fibercav.cli", "load_run_record", "records.load_run_record", None, True),
)

#: Layer names, in the order the summaries print them.
LAYERS = ("import", "cli", "cavity", "fitting", "pulling", "modes", "records")


class Tracer:
    """In-memory spans ``(name, start, end, parent, op, thread)`` plus counters.

    Parents are tracked per thread, because ``--batch`` runs its own
    thread pool inside the traced process; a span opened on a thread with
    no open span gets ``root`` as its parent.
    """

    def __init__(self, op: str = ""):
        self.op = op
        self.root = -1
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.op,
                               threading.get_ident()])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def install(self) -> None:
        """Replace every reachable entry of :data:`WRAPPED` with a recorder."""
        for module_name, attr, name, counter, with_span in WRAPPED:
            module = importlib.import_module(module_name)
            # a later version of the program may drop or move a name; its
            # metrics then read 0 instead of stopping the benchmark
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrapper(original, name, counter, with_span))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrapper(self, original, name, counter, with_span):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name) if with_span else None
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if name == "fitting.analyze_spectrum":
                    tracer.add(f"fitting.failed.{type(exc).__name__}", 1)
                elif name == "pulling.fit_loss_growth":
                    tracer.add("pulling.growth_failures", 1)
                raise
            finally:
                if index is not None:
                    tracer._close(index)
            if counter is not None:
                counter(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def as_dict(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op, "thread": t}
                for n, s, e, p, op, t in self.spans
            ],
            "counts": dict(self.counts),
        }

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.as_dict()))


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


def attribute_wall(spans: list[dict]) -> list[float]:
    """Self time of each span of one process, as a share of wall time.

    At every instant, each thread is busy in its innermost open span,
    unless that span waits on an open child on another thread (the
    ``--batch`` main thread waiting for its pool).  The instant's wall
    time is split equally among the busy threads, since under the
    interpreter lock they take turns.  With one thread this is the span's
    duration minus its children's; under the pool the shares of all spans
    still add up to the process's busy wall time, instead of counting it
    once per thread.
    """
    events = sorted(
        [(span["start"], 1, index) for index, span in enumerate(spans)]
        + [(span["end"], 0, index) for index, span in enumerate(spans)]
    )
    share = [0.0] * len(spans)
    open_children = [0] * len(spans)
    open_spans: dict[int, list[int]] = defaultdict(list)
    previous = events[0][0] if events else 0.0
    for moment, is_start, index in events:
        busy = [stack[-1] for stack in open_spans.values()
                if stack and not open_children[stack[-1]]]
        if busy and moment > previous:
            portion = (moment - previous) / len(busy)
            for innermost in busy:
                share[innermost] += portion
        previous = moment
        stack = open_spans[spans[index]["thread"]]
        parent = spans[index]["parent"]
        if is_start:
            stack.append(index)
            if parent >= 0:
                open_children[parent] += 1
        elif index in stack:
            stack.remove(index)
            if parent >= 0:
                open_children[parent] -= 1
    return share
