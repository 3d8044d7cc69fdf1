"""fibercav benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 20 --trace 0

Workloads (see NOTES.md for why each exists): cli_session, batch_campaign,
fit_fuzz, mode_sweep.  Inputs are generated from ``--seed`` into
``.perfbench_work/`` in the checkout and removed at the end.  The program
runs from ``src/``: CLI verbs as ``python -m fibercav.cli`` subprocesses
with ``PYTHONPATH=src``, library calls in this process.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics from a traced run, and the spans and counts are written to
``.perfbench_traces/<workload>.json``.  Every line before it is a
human-readable report.  The exit status is 0 when the run completed,
whatever the share of failed operations; it is 2 when the run could not
be made at all (no source tree, bad arguments, a workload that does not
start).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


#: Printed with the end-to-end metrics but not part of the result line:
#: with 7 distinct CLI calls or 40 spectra per run the tail percentile
#: sits on the edge between groups of very different operations, so it
#: swings far more from run to run than any regression bound could allow.
REPORTED_ONLY = {"op_tail_s": "s"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (p in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it.

    Below 20 samples no such percentile reaches the median; the tail is
    then reported at p50 and the output says so.
    """
    return max(50, math.floor(100.0 * (1.0 - 10.0 / count))) if count else 50


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": sys.version.split()[0]}
    for package in ("numpy", "scipy", "click"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = "missing"
    return facts


def time_imports(root: Path) -> dict:
    """Import the package the way the CLI does, and time both steps."""
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import fibercav  # noqa: F401
    middle = time.perf_counter()
    import fibercav.cli  # noqa: F401
    end = time.perf_counter()
    return {
        "import.fibercav_s": middle - start,
        "import.fibercav_cli_s": end - middle,
        "import.scipy_modules": sum(
            1 for name in sys.modules if name == "scipy" or name.startswith("scipy.")),
    }


def measure(workload, seconds: float, traced_rounds: bool, tracer: Tracer | None):
    """Closed loop over whole rounds, as many as the measuring time holds.

    The first round's time at the reference speed (checks included) fixes
    the number of rounds, so a slow phase of the machine does not change
    how many rounds a run makes: an even number, at least two, so that
    every item is repeated and a round near a third of the measuring time
    does not flip between two and three rounds.  Untraced runs do only
    untraced rounds; traced runs alternate an untraced and a traced
    round, so the difference gives the tracing overhead on the same
    inputs.
    """
    rounds = []
    count = 2
    while len(rounds) < count:
        index = len(rounds)
        traced = traced_rounds and index % 2 == 1
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        start = time.perf_counter()
        ops = workload.run_round(index, traced)
        wall = time.perf_counter() - start
        rounds.append({"traced": traced, "ops": ops, "wall": wall})
        if index == 0:
            factor = statistics.median(op.factor for op in ops)
            count = 2 * max(1, math.floor(seconds / (2.0 * wall * factor)))
    if tracer is not None:
        tracer.uninstall()
    return rounds


def end_to_end(workload, rounds, setups) -> tuple[dict, dict]:
    """End-to-end values at the reference speed, and the raw ones.

    Each item's time is its median over the rounds.  An operation over
    several items (a --batch call) gives each item its share of the
    call's time.  Returns ``{name: (value, raw value)}`` and a note per
    name.
    """
    per_label: dict[str, list] = {}
    for r in rounds:
        for op in r["ops"]:
            entry = per_label.setdefault(op.label, [[], [], op.items])
            entry[0].append(op.reference_seconds / op.items)
            entry[1].append(op.seconds / op.items)
    typical = [(statistics.median(ref), statistics.median(raw), items)
               for ref, raw, items in per_label.values()]
    count = sum(items for _, _, items in typical)
    p_tail = tail_percentile(count)
    values = {}
    for column, setup_times in (
            (0, [t.seconds * t.factor for t in setups]),
            (1, [t.seconds for t in setups])):
        item_times = [e[column] for e in typical for _ in range(e[2])]
        for name, value in (
                ("setup_s", statistics.median(setup_times)),
                ("op_p50_s", percentile(item_times, 50)),
                ("throughput_per_s", count / sum(item_times)),
                ("op_tail_s", percentile(item_times, p_tail))):
            values.setdefault(name, []).append(value)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_p50_s": f"median over n={count} {workload.item}s",
        "op_tail_s": f"p{p_tail} over n={count} {workload.item}s"
                     + (" (too few for a tail beyond p50)" if count < 20 else ""),
        "throughput_per_s": f"{count} {workload.item}s, median of {len(rounds)} rounds each",
    }
    return {name: tuple(pair) for name, pair in values.items()}, notes


def layer_metrics(rounds, traces: list[dict], imports: dict) -> tuple[dict, dict]:
    """Per-layer metrics per traced round, plus the self-time summary."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    n = len(traced)
    inclusive: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    run_pipeline_self = 0.0
    for trace in traces:
        for name, value in trace["counts"].items():
            if name.endswith("_max"):
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value
        spans = trace["spans"]
        own = tracing.attribute_wall(spans)
        # A child opens after its parent, so one backward pass adds each
        # span's attributed time to its ancestors.
        total = list(own)
        for index in range(len(spans) - 1, -1, -1):
            parent = spans[index]["parent"]
            if parent >= 0:
                total[parent] += total[index]
        for span, value, whole in zip(spans, own, total):
            inclusive[span["name"]] += whole
            layer_self[span["name"].split(".", 1)[0]] += value
            if span["name"] == "cli.run_pipeline":
                run_pipeline_self += value
    traced_busy = statistics.median(sum(op.seconds for op in r["ops"]) for r in traced)
    # the overhead compares times at the reference speed, so a change of
    # the machine's phase between the two rounds does not enter it
    traced_ref = statistics.median(
        sum(op.reference_seconds for op in r["ops"]) for r in traced)
    plain_ref = statistics.median(
        sum(op.reference_seconds for op in r["ops"]) for r in plain)
    attributed = sum(layer_self.values()) / n

    m: dict[str, float] = {}
    cli_traces = [t for t in traces if "verb" in t]
    if cli_traces:
        for name in ("import.fibercav", "import.fibercav_cli"):
            m[name + "_s"] = statistics.median(
                sum(s["end"] - s["start"] for s in t["spans"] if s["name"] == name)
                for t in cli_traces)
        m["import.scipy_modules"] = statistics.median(
            t["counts"].get("import.scipy_modules", 0) for t in cli_traces)
    else:
        m.update(imports)
    for verb in CLI_VERBS:
        mine = [t for t in cli_traces if t["verb"] == verb]
        m[f"cli.{verb}_s"] = statistics.median(t["wall"] for t in mine) if mine else 0.0
        m[f"cli.{verb}.modules_loaded"] = (
            statistics.median(t["counts"]["cli.modules_loaded"] for t in mine) if mine else 0)
    m["cli.run_pipeline_self_s"] = run_pipeline_self / n
    for name in ("cavity.parse_spectrum_csv", "cavity.write_spectrum_csv",
                 "cavity.cavity_spectrum", "fitting.analyze_spectrum",
                 "fitting.fit_lorentzian", "fitting.evaluate_fit",
                 "pulling.load_pull_trace", "pulling.classify_flame",
                 "pulling.fit_loss_growth", "modes.solve_he11",
                 "modes.effective_mode_area", "records.file_digest",
                 "records.write_run_record", "records.load_run_record"):
        m[name + "_s"] = inclusive.get(name, 0.0) / n
    for name in ("cavity.rows_parsed", "cavity.rows_written", "fitting.fit_lorentzian_calls",
                 "fitting.candidates", "fitting.peaks_fitted", "fitting.lm_iterations",
                 "pulling.rows_parsed", "pulling.growth_failures",
                 "modes.characteristic_evals", "records.bytes_hashed"):
        m[name] = counts.get(name, 0) / n
    m["fitting.candidates_max"] = counts.get("fitting.candidates_max", 0)
    for error in FIT_ERRORS:
        m[f"fitting.failed.{error}"] = counts.get(f"fitting.failed.{error}", 0) / n
    for layer in LAYERS:
        m[f"self.{layer}_s"] = layer_self[layer] / n
    # Busy time no wrapped span covers: interpreter start-up and exit of
    # each CLI process, the benchmark's own calls between spans.
    m["self.unattributed_s"] = traced_busy - attributed
    m["trace.round_s"] = traced_busy
    m["trace.overhead_s"] = traced_ref - plain_ref
    m["trace.overhead_share"] = (traced_ref - plain_ref) / plain_ref
    notes = {
        "rounds": f"{n} traced and {len(plain)} untraced round(s)",
        "self": {layer: layer_self[layer] / n for layer in LAYERS},
    }
    return m, notes


CLI_VERBS = ("synth", "fit", "budget", "pull", "modes", "coop", "report")
FIT_ERRORS = ("DomainError", "FitFailureError", "InsufficientPeaksError",
              "WindowTooNarrowError", "NumericalFailureError")


def declared_metrics(root: Path) -> tuple[dict, dict]:
    """Names and units of the end-to-end and per-layer metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from workloads import METER, WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        fail("need --seconds > 0 and --seed >= 0")
    root = Path.cwd()
    if not (root / "src" / "fibercav" / "cli.py").is_file():
        fail(f"no fibercav source tree under {root / 'src'}; run from the repository root")

    try:
        end_to_end_units, per_layer_units = declared_metrics(root)
    except (OSError, ValueError, KeyError) as exc:
        fail(f"cannot read the metric list from BENCHMARK.json: {exc!r}")
    facts = machine_facts()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("# load: closed loop, 1 client, one operation in flight")

    imports = time_imports(root)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](root, work, args.seed)
        print(f"# why: {workload.why}")
        if args.workload == "batch_campaign":
            print("# note: --batch runs its own thread pool of up to 8 threads on "
                  f"this {facts['nproc']}-core machine; that pool is the program "
                  "under test, not the load generator")
        setups = []
        for _ in range(workload.setups):
            try:
                with METER.timing() as timing:
                    workload.setup()
            except (RuntimeError, ImportError, OSError) as exc:
                fail(f"set-up failed: {exc}")
            setups.append(timing)

        tracer = None
        if args.trace and not workload.subprocess_based:
            tracer = Tracer()
            workload.tracer = tracer
        rounds = measure(workload, args.seconds, bool(args.trace), tracer)
        who = resource.RUSAGE_CHILDREN if workload.subprocess_based else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

        ops = [op for r in rounds for op in r["ops"]]
        attempted = sum(op.items for op in ops)
        failures = [reason for op in ops for reason in op.failures]
        wrong = [reason for op in ops for reason in op.wrong]
        failed = len(failures)
        if attempted == 0:
            fail("no operation was attempted")

        values, notes = end_to_end(workload, [r for r in rounds if not r["traced"]], setups)
        values["peak_rss_mb"] = (rss_mb, rss_mb)
        notes["peak_rss_mb"] = ("peak RSS of the CLI subprocesses" if workload.subprocess_based
                                else "peak RSS of this process")
        factors = [op.factor for op in ops] + [t.factor for t in setups]
        print(f"# rounds: {len(rounds)}; {attempted} {workload.item}s attempted")
        print(f"# machine speed factor (probe reference / probe measured): median "
              f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}; "
              "times below are at the reference speed, raw wall times in brackets")
        for name in (*end_to_end_units, *REPORTED_ONLY):
            value, raw = values[name]
            alias = workload.aliases.get(name)
            label = f"{name} (= {alias})" if alias else name
            unit = end_to_end_units.get(name) or REPORTED_ONLY[name]
            print(f"{label:44s} {value:12.6g} {unit:4s} [{raw:.6g}] {notes[name]}")
        print(f"{'error_rate':44s} {failed / attempted:12.6g} ratio "
              f"{failed} failed / {attempted} attempted, "
              f"{len(wrong)} of them wrong beyond their stated uncertainty")
        for reason in sorted(set(failures))[:12]:
            print(f"#   failed: {reason[:200]}")

        if args.trace:
            traces = workload.cli.traces if workload.subprocess_based else [tracer.as_dict()]
            metrics_out, trace_notes = layer_metrics(rounds, traces, imports)
            out_dir = root / ".perfbench_traces"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"{args.workload}.json"
            trace_path.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "traces": traces, "rounds": [
                    {"traced": r["traced"], "wall": r["wall"],
                     "ops": [[op.label, op.seconds, op.items, len(op.failures)]
                             for op in r["ops"]]} for r in rounds],
            }))
            print(f"# spans and counts: {trace_path.relative_to(root)} "
                  f"({trace_notes['rounds']})")
            total = metrics_out["trace.round_s"]
            print(f"# self time per traced round ({total:.4f} s busy):")
            for layer, value in trace_notes["self"].items():
                print(f"#   {layer:10s} {value:10.4f} s  {100.0 * value / total:6.1f}%")
            print(f"#   {'unattrib.':10s} {metrics_out['self.unattributed_s']:10.4f} s")
            print(f"# tracing overhead: {metrics_out['trace.overhead_s']:+.4f} s per round "
                  f"({100.0 * metrics_out['trace.overhead_share']:+.1f}%)")
            if set(metrics_out) != set(per_layer_units):
                fail("per-layer metrics differ from BENCHMARK.json: "
                     f"{sorted(set(metrics_out) ^ set(per_layer_units))}")
            for name, unit in per_layer_units.items():
                print(f"{name:44s} {metrics_out[name]:14.6g} {unit}")
            metrics = {name: {"value": metrics_out[name], "unit": unit}
                       for name, unit in per_layer_units.items()}
        else:
            metrics = {name: {"value": values[name][0], "unit": unit}
                       for name, unit in end_to_end_units.items()}
        # "correct": no output was wrong beyond doubt (see workloads.Op).
        # Refusals and misses within the stated uncertainty, the known
        # defects, count in "failed" only.
        print(json.dumps({"correct": not wrong, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


if __name__ == "__main__":
    main()
