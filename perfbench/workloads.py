"""The four benchmark workloads: inputs from a seed, one round of work, checks.

Every workload follows one pattern.  ``setup`` writes the seeded inputs
into the run's work directory and warms up.  ``run_round`` does one fixed
unit of work (a lab session, a batch campaign, a pass over the fuzz
corpus, a diameter sweep), times each operation on its own, and checks
every output after its timing has stopped.  The truth values used by the
checks (model finesse, trace kind, geometry) stay in this process; the
program only sees generated files and arguments.

Load is a closed loop with one client: the next operation starts when the
previous one has returned.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
WAVELENGTH_NM = 1389.0
GRATING_MM = 8.0
SPECTRUM_ROWS = 30001
CLI_TIMEOUT_S = 150.0


class Speedometer:
    """Machine speed around each timed operation.

    The benchmark shares a 2-vCPU virtual machine whose speed drifts by up
    to 1.7x in phases of ten seconds to a minute (a fixed pure-Python loop
    takes 0.11 s in a fast phase and 0.19 s in a slow one), and CPU time
    follows wall time.  A short probe loop therefore runs just before and
    just after each timed operation, and every 50 ms while a CLI
    subprocess runs, always outside the timed work of this process.  An
    operation's ``factor`` is the probe's reference time over the median
    of its probes; its seconds times its factor are its seconds at the
    reference speed, which is what the end-to-end metrics report.  The raw
    seconds are printed beside them.
    """

    #: The probe loop's time in a fast phase of the machine the benchmark
    #: was written on (2 vCPUs, Python 3.11.7).
    REFERENCE_S = 0.0018

    @staticmethod
    def loop() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        return time.perf_counter() - start

    def probe(self) -> float:
        return sorted(self.loop() for _ in range(3))[1]

    def timing(self) -> "_Timing":
        return _Timing(self)


class _Timing:
    """Wall time of one operation, with the probes taken around it."""

    def __init__(self, meter: Speedometer):
        self.meter = meter
        self.samples: list[float] = []
        self.start = self.end = 0.0
        self.factor = 1.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def __enter__(self):
        self.samples.append(self.meter.probe())
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if not self.end:
            self.end = time.perf_counter()
        self.samples.append(self.meter.probe())
        self.factor = Speedometer.REFERENCE_S / statistics.median(self.samples)
        return False


METER = Speedometer()


@dataclass
class Op:
    """One timed operation and the items it covered (files, spectra, points).

    ``failures`` lists every failed item: refused (an error raised, a
    non-zero exit) or outside its check's tolerance.  ``wrong`` lists the
    subset whose output is wrong beyond doubt: a value that misses the
    truth by more than its own stated uncertainty allows, a verdict that
    differs from the trace kind, a report that differs from the first
    run's.
    """

    label: str
    seconds: float
    factor: float = 1.0
    items: int = 1
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.factor

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.failures.append(reason)
        if wrong:
            self.wrong.append(reason)


def cavity_model(t1: float, t2: float, alpha_int: float, length_mm: float):
    from fibercav.cavity import CavityModel
    from fibercav.gratings import GratingSpec

    return CavityModel(
        mirror_1=GratingSpec.from_peak_and_length(WAVELENGTH_NM, 1.0 - t1, GRATING_MM),
        mirror_2=GratingSpec.from_peak_and_length(WAVELENGTH_NM, 1.0 - t2, GRATING_MM),
        length_mm=length_mm,
        intrinsic_loss=alpha_int,
    )


def noisy_spectrum(model, noise: float, rng, channels=("transmission", "reflection")):
    """Model spectrum on the ``synth`` default grid (3 FSR, 30001 rows)."""
    import dataclasses

    import numpy as np
    from fibercav.cavity import cavity_spectrum

    half = 1.5 * model.fsr_hz
    trace = cavity_spectrum(model, np.linspace(-half, half, SPECTRUM_ROWS))
    if noise > 0.0:
        trace = dataclasses.replace(trace, **{
            name: np.clip(getattr(trace, name) + rng.normal(scale=noise, size=SPECTRUM_ROWS),
                          0.0, 1.0)
            for name in channels
        })
    return trace


def check_finesse(finesse: dict, model) -> tuple[str, bool] | None:
    """Fitted finesse against 2π/α_tot of the generating model.

    More than 2% off fails the item; it is also wrong when the miss is
    larger than three of the fit's own reported sigmas.
    """
    expected = 2.0 * math.pi / model.total_loss
    miss = abs(finesse["value"] - expected)
    if miss <= 0.02 * expected:
        return None
    return (f"finesse {finesse['value']:.6g} ± {finesse['sigma']:.2g} is "
            f"{100.0 * miss / expected:.2f}% from 2π/α_tot = {expected:.6g}",
            miss > 3.0 * finesse["sigma"])


def expected_verdict(kind: str) -> str:
    return "D2-like" if kind == "flat" else "H2-like"


class CliRunner:
    """Runs ``python -m fibercav.cli`` verbs with ``PYTHONPATH=src``.

    With ``trace_dir`` set, each verb runs under ``traced_cli.py`` instead
    and its span file is collected in ``traces``.
    """

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k != "FIBERCAV_CONFIG"}
        self.env["PYTHONPATH"] = "src"
        self.trace_dir: Path | None = None
        self.traces: list[dict] = []
        self.calls = 0

    def run(self, args: list[str], op: str = "") -> tuple[_Timing, int, str, str]:
        """Run one verb; returns (its timing, exit status, stdout, stderr)."""
        self.calls += 1
        out_path = self.logs / f"{self.calls}.out"
        err_path = self.logs / f"{self.calls}.err"
        if self.trace_dir is None:
            command = [sys.executable, "-m", "fibercav.cli", *args]
        else:
            spans_path = self.trace_dir / f"{self.calls}.json"
            command = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err, \
                METER.timing() as timing:
            process = subprocess.Popen(command, cwd=self.root, env=self.env,
                                       stdout=out, stderr=err)
            # A waiter thread takes the end time the moment the child exits,
            # while this thread probes the machine speed in between.
            waiter = threading.Thread(target=_wait_and_stamp, args=(process, timing))
            waiter.start()
            while waiter.is_alive() and time.perf_counter() - timing.start < CLI_TIMEOUT_S:
                timing.samples.append(METER.loop())
                waiter.join(0.05)
            if waiter.is_alive():
                process.kill()
                waiter.join()
            status = process.returncode
        if self.trace_dir is not None:
            trace = json.loads(spans_path.read_text())
            for span in trace["spans"]:
                span["op"] = op
            trace["verb"] = args[0]
            trace["wall"] = timing.seconds
            self.traces.append(trace)
        return timing, status, out_path.read_text(), err_path.read_text()

    def warm_up(self) -> None:
        """One untimed CLI start, so byte code and page cache are warm."""
        _, status, _, err = self.run(["--version"])
        if status != 0:
            raise RuntimeError(f"fibercav CLI does not start: {err.strip()}")


def _wait_and_stamp(process: subprocess.Popen, timing: _Timing) -> None:
    process.wait()
    timing.end = time.perf_counter()


class Workload:
    name = ""
    why = ""
    #: How an operation is reported: what one "item" is.
    item = "operation"
    #: End-to-end names the issue gives to op_p50_s, op_tail_s and
    #: throughput_per_s on this workload.
    aliases: dict = {}
    subprocess_based = False
    #: Set-ups per run; setup_s is their median.
    setups = 7
    #: Set by traced runs of in-process workloads, to label spans by item.
    tracer = None

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.reports: dict[str, bytes] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int, traced: bool) -> list[Op]:
        raise NotImplementedError

    def same_as_first(self, key: str, payload: bytes) -> str | None:
        """Repeated operations must write byte-identical reports."""
        first = self.reports.setdefault(key, payload)
        return None if first == payload else f"{key}: report differs from first run"


# ----------------------------------------------------------------------
# cli_session


class CliSession(Workload):
    name = "cli_session"
    why = "one lab session as 7 sequential CLI subprocesses; startup dominates each call"
    item = "CLI call"
    aliases = {"op_p50_s": "cli_call_p50_s", "op_tail_s": "cli_call_tail_s",
               "throughput_per_s": "cli_calls_per_s"}
    subprocess_based = True
    setups = 3
    verbs = ("synth", "fit", "budget", "pull", "modes", "coop", "report")

    def setup(self) -> None:
        import numpy as np
        from fibercav.cavity import on_resonance_values
        from fibercav.pulling import synthesize_pull_trace, write_pull_trace

        rng = np.random.default_rng([self.seed, 1])
        alpha_tot = float(np.exp(rng.uniform(np.log(0.008), np.log(0.015))))
        f1, f2 = rng.uniform(0.2, 0.4, size=2)
        self.t1, self.t2 = float(f1 * alpha_tot), float(f2 * alpha_tot)
        self.alpha_int = alpha_tot - self.t1 - self.t2
        self.length_mm = float(rng.uniform(10.0, 40.0))
        self.model = cavity_model(self.t1, self.t2, self.alpha_int, self.length_mm)
        _, self.r1, self.r2 = on_resonance_values(self.model)
        self.kind = str(rng.choice(["ramp", "flat", "exponential-onset"]))
        trace = synthesize_pull_trace(self.kind, samples=4000, noise=1e-3,
                                      seed=int(rng.integers(2**31)))
        self.trace_path = self.work / "session_trace.csv"
        write_pull_trace(trace, self.trace_path)
        self.synth_seed = int(rng.integers(2**31))
        self.cli = CliRunner(self.root, self.work)
        self.cli.warm_up()

    def run_round(self, index: int, traced: bool) -> list[Op]:
        out = self.work / f"session_{index}"
        out.mkdir()
        self.cli.trace_dir = out if traced else None
        ops: list[Op] = []

        def call(verb: str, *args: str) -> Op:
            timing, status, _, err = self.cli.run([verb, *args, "--out", str(out)],
                                                  op=f"{index}:{verb}")
            op = Op(verb, timing.seconds, timing.factor)
            if status != 0:
                op.fail(f"{verb}: exit {status}: {err.strip()[-300:]}")
            else:
                report = (out / f"{verb}_report.json").read_bytes()
                problem = self.same_as_first(verb, report)
                if problem:
                    op.fail(problem, wrong=True)
            ops.append(op)
            return op

        def report_of(verb: str) -> dict:
            return json.loads((out / f"{verb}_report.json").read_text())

        def check(op: Op, test) -> None:
            if op.failures:
                return
            try:
                problem = test()
            except (OSError, KeyError, ValueError) as exc:
                problem = (f"unreadable output: {exc!r}", True)
            if isinstance(problem, str):
                problem = (problem, True)
            if problem:
                op.fail(f"{op.label}: {problem[0]}", wrong=problem[1])

        op = call("synth", "--t1", repr(self.t1), "--t2", repr(self.t2),
                  "--alpha-int", repr(self.alpha_int), "--length-mm", repr(self.length_mm),
                  "--noise", "1e-3", "--seed", str(self.synth_seed))
        check(op, lambda: None if abs(report_of("synth")["expected_finesse"]
                                      / self.model.expected_finesse - 1.0) < 1e-9
              else "expected finesse differs from the model")
        op = call("fit", str(out / "synth_spectrum.csv"), "--emit-plot-data")
        check(op, lambda: check_finesse(report_of("fit")["finesse"], self.model))
        op = call("budget", "--from-fit", str(out / "fit_report.json"),
                  "--r1", repr(self.r1), "--r2", repr(self.r2))
        check(op, lambda: self._check_budget(report_of("budget")))
        op = call("pull", str(self.trace_path), "--growth", "linear")
        check(op, lambda: None if report_of("pull")["classification"]["label"]
              == expected_verdict(self.kind) else f"verdict for a {self.kind} trace")
        op = call("modes", "--diameter-nm", "650", "--sellmeier")
        check(op, lambda: check_mode(650.0, report_of("modes")["n_eff"],
                                     report_of("modes")["a_eff_um2"]))
        fitted = (report_of("fit")["finesse"]["value"] if not ops[1].failures
                  else self.model.expected_finesse)
        op = call("coop", "--finesse", repr(fitted))
        check(op, lambda: self._check_coop(report_of("coop"), fitted))
        records = [str(out / f"{verb}_record.json") for verb in self.verbs[:-1]]
        op = call("report", *records)
        check(op, lambda: None if len(report_of("report")["record_ids"]) == 6
              else "report does not cover the six records")
        return ops

    def _check_budget(self, result: dict) -> str | None:
        # c06 inverts within 0.5% given the exact finesse; the fitted
        # finesse may be 1% off (c05), which moves each loss by up to 1%
        # of α_tot.
        slack = 0.01 * self.model.total_loss
        for key, truth in (("t1", self.t1), ("t2", self.t2), ("alpha_int", self.alpha_int)):
            if abs(result[key]["value"] - truth) > 5e-3 * truth + slack:
                return f"{key} {result[key]['value']:.6g} vs generating {truth:.6g}"
        return None

    @staticmethod
    def _check_coop(result: dict, finesse: float) -> str | None:
        expected = result["K"] * result["sigma0_over_aeff"] * finesse
        if abs(result["cooperativity"]["value"] / expected - 1.0) > 1e-9:
            return "cooperativity is not K·σ0/A_eff·F"
        return None


# ----------------------------------------------------------------------
# batch_campaign


class BatchCampaign(Workload):
    name = "batch_campaign"
    why = "three --batch calls over seeded spectra and pull traces; CSV I/O and hashing carry the time"
    item = "input file"
    aliases = {"throughput_per_s": "batch_files_per_s"}
    subprocess_based = True
    setups = 3
    spectra = {"transmission": 8, "reflection": 8}
    pull_traces = 6
    pull_samples = 12000

    def setup(self) -> None:
        import numpy as np
        from fibercav.cavity import write_spectrum_csv
        from fibercav.pulling import synthesize_pull_trace, write_pull_trace

        rng = np.random.default_rng([self.seed, 2])
        self.truth: dict[str, object] = {}
        self.dirs = {}
        for channel, n in self.spectra.items():
            folder = self.work / f"spectra_{channel}"
            folder.mkdir(exist_ok=True)
            self.dirs[channel] = folder
            # stratified: every seed covers the same spread of noise and loss
            noise_strata = rng.permutation(n)
            loss_strata = rng.permutation(n)
            for i in range(n):
                noise = 0.005 * (noise_strata[i] + rng.uniform()) / n
                alpha = math.exp(math.log(0.005) + math.log(4.0)
                                 * (loss_strata[i] + rng.uniform()) / n)
                # near-balanced mirrors keep every peak well above the
                # noise: these are the clean spectra of a lab campaign, the
                # noisy ones are fit_fuzz's
                f1, f2 = rng.uniform(0.35, 0.45, size=2)
                model = cavity_model(f1 * alpha, f2 * alpha, alpha * (1.0 - f1 - f2),
                                     float(rng.uniform(10.0, 40.0)))
                stem = f"{channel[0]}{i:02d}"
                write_spectrum_csv(noisy_spectrum(model, noise, rng), folder / f"{stem}.csv")
                self.truth[f"{channel}/{stem}"] = model
        folder = self.work / "pull_traces"
        folder.mkdir(exist_ok=True)
        self.dirs["pull"] = folder
        kinds = ("ramp", "flat", "exponential-onset")
        for i in range(self.pull_traces):
            kind = kinds[i % 3]
            trace = synthesize_pull_trace(kind, samples=self.pull_samples, noise=1e-3,
                                          seed=int(rng.integers(2**31)))
            write_pull_trace(trace, folder / f"p{i:02d}.csv")
            self.truth[f"pull/p{i:02d}"] = kind
        self.cli = CliRunner(self.root, self.work)
        self.cli.warm_up()

    def run_round(self, index: int, traced: bool) -> list[Op]:
        out = self.work / f"campaign_{index}"
        out.mkdir()
        self.cli.trace_dir = out if traced else None
        calls = (
            ("transmission", ["fit", "--batch", str(self.dirs["transmission"]),
                              "--emit-plot-data"]),
            ("reflection", ["fit", "--batch", str(self.dirs["reflection"]),
                            "--channel", "reflection", "--emit-plot-data"]),
            ("pull", ["pull", "--batch", str(self.dirs["pull"]),
                      "--growth", "exponential-onset", "--emit-plot-data"]),
        )
        ops = []
        for group, args in calls:
            target = out / group
            timing, status, _, err = self.cli.run([*args, "--out", str(target)],
                                                  op=f"{index}:{group}")
            folder = self.dirs[group]
            stems = sorted(path.stem for path in folder.glob("*.csv"))
            op = Op(f"{args[0]} --batch {group}", timing.seconds, timing.factor,
                    items=len(stems))
            errors = {}
            for line in err.splitlines():
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue
                if isinstance(payload, dict) and "file" in payload:
                    errors[Path(payload["file"]).stem] = payload.get("error", "error")
            if status != 0 and not errors:
                for stem in stems:
                    op.fail(f"{group}/{stem}: exit {status}")
            for stem in stems:
                if stem in errors:
                    op.fail(f"{group}/{stem}: {errors[stem]}")
                    continue
                problem = self._check_file(group, stem, target)
                if problem:
                    op.fail(f"{group}/{stem}: {problem[0]}", wrong=problem[1])
            ops.append(op)
        return ops

    def _check_file(self, group: str, stem: str, target: Path) -> tuple[str, bool] | None:
        verb = "pull" if group == "pull" else "fit"
        path = target / f"{stem}_{verb}_report.json"
        try:
            payload = path.read_bytes()
            result = json.loads(payload)
        except (OSError, ValueError) as exc:
            return f"no readable report: {exc!r}", True
        truth = self.truth[f"{group}/{stem}"]
        if verb == "pull":
            if result["classification"]["label"] != expected_verdict(truth):
                return f"verdict {result['classification']['label']} for a {truth} trace", True
        else:
            problem = check_finesse(result["finesse"], truth)
            if problem:
                return problem
        problem = self.same_as_first(f"{group}/{stem}", payload)
        return (problem, True) if problem else None


# ----------------------------------------------------------------------
# fit_fuzz


class FitFuzz(Workload):
    name = "fit_fuzz"
    why = "in-process analyze_spectrum over a seeded noisy corpus; peak detection and LM fits, no I/O"
    item = "spectrum"
    aliases = {"op_tail_s": "fit_tail_s", "throughput_per_s": "fits_per_s"}
    # Design grid over the fuzz ranges of loss, noise and channel.  The
    # mirror split sets the height of the transmission peak against the
    # noise, so it follows a fixed Latin square over (loss, noise): every
    # seed gets the same mix of easy and hard spectra.  The seed draws the
    # noise itself, the cavity length and a ±3% jitter of the loss.
    # Five noise levels put the median spectrum inside the large group of
    # quick reflection fits instead of on its edge.
    losses = (0.003, 0.0055, 0.01, 0.02)
    noises = (0.0, 0.005, 0.01, 0.02, 0.03)
    splits = ((0.3, 0.3), (0.2, 0.4), (0.4, 0.25), (0.35, 0.35))

    def setup(self) -> None:
        import numpy as np

        rng = np.random.default_rng([self.seed, 3])
        self.corpus = []
        for i, alpha0 in enumerate(self.losses):
            for j, noise in enumerate(self.noises):
                for channel in ("transmission", "reflection"):
                    alpha = alpha0 * math.exp(rng.uniform(-0.03, 0.03))
                    f1, f2 = self.splits[(i + j) % 4]
                    model = cavity_model(f1 * alpha, f2 * alpha, alpha * (1.0 - f1 - f2),
                                         float(rng.uniform(10.0, 40.0)))
                    trace = noisy_spectrum(model, noise, rng, channels=(channel,))
                    self.corpus.append((channel, model, trace))
        import fibercav.fitting as fitting

        self.fitting = fitting
        channel, _, trace = self.corpus[0]
        self._analyze(channel, trace)

    def _analyze(self, channel: str, trace):
        return self.fitting.analyze_spectrum(
            trace, channel=channel, polarity="peak" if channel == "transmission" else "dip")

    def run_round(self, index: int, traced: bool) -> list[Op]:
        from fibercav.errors import FibercavError

        ops = []
        for number, (channel, model, trace) in enumerate(self.corpus):
            if self.tracer is not None:
                self.tracer.op = f"{index}:{number}"
            with METER.timing() as timing:
                try:
                    report = self._analyze(channel, trace)
                    error = None
                except FibercavError as exc:
                    error = f"{type(exc).__name__}: {exc}"
            op = Op(f"spectrum {number}", timing.seconds, timing.factor)
            if error:
                op.fail(f"spectrum {number}: {error}")
                ops.append(op)
                continue
            problem = check_finesse(report.finesse.as_dict(), model)
            if problem:
                op.fail(f"spectrum {number}: {problem[0]}", wrong=problem[1])
            else:
                problem = self.same_as_first(
                    str(number), json.dumps(report.as_dict(), sort_keys=True).encode())
                if problem:
                    op.fail(problem, wrong=True)
            ops.append(op)
        return ops


# ----------------------------------------------------------------------
# mode_sweep


def reference_n_eff(diameter_nm: float, wavelength_nm: float, n1: float,
                    n2: float = 1.0) -> float:
    """HE11 effective index from the exact step-index eigenvalue equation.

    ``[J'/(uJ) + K'/(wK)]·[J'/(uJ) + (n2/n1)²K'/(wK)]
    = (1/u² + 1/w²)·(1/u² + (n2/n1)²/w²)`` for m = 1, solved for its
    largest root; written here independently of ``fibercav.modes``.
    """
    import numpy as np
    from scipy.optimize import brentq
    from scipy.special import jv, jvp, kv, kvp

    ka = math.pi * diameter_nm / wavelength_nm
    ratio = (n2 / n1) ** 2

    def mismatch(n_eff):
        u = ka * np.sqrt(n1 * n1 - n_eff * n_eff)
        w = ka * np.sqrt(n_eff * n_eff - n2 * n2)
        jt = jvp(1, u) / (u * jv(1, u))
        kt = kvp(1, w) / (w * kv(1, w))
        return (jt + kt) * (jt + ratio * kt) - (1 / u**2 + 1 / w**2) * (1 / u**2 + ratio / w**2)

    grid = np.linspace(n2 + 1e-12, n1 - 1e-9, 4001)
    values = mismatch(grid)
    crossings = np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]
    top = crossings[-1]
    return brentq(mismatch, grid[top], grid[top + 1], xtol=1e-15, rtol=1e-15)


def reference_area_um2(geometry, n_eff: float) -> float:
    """Trapezoid A_eff on ``modes.mode_intensity``, thirty decay lengths out."""
    import numpy as np
    from fibercav.modes import mode_intensity

    a = geometry.radius_m
    gamma = geometry.vacuum_wavenumber * math.sqrt(n_eff**2 - geometry.cladding_index**2)
    inner = np.linspace(0.0, a, 10000)
    inner[-1] = a * (1.0 - 1e-12)
    outer = np.linspace(a, a + 30.0 / gamma, 10000)
    outer[0] = a * (1.0 + 1e-12)
    r = np.concatenate([inner, outer])
    flux = mode_intensity(geometry, n_eff, r)
    numerator = np.trapezoid(flux * r, r)
    denominator = np.trapezoid(flux * flux * r, r)
    return 2.0 * math.pi * numerator**2 / denominator * 1e12


def check_mode(diameter_nm: float, n_eff: float, area_um2: float) -> str | None:
    """c09 tolerances: |Δn_eff| < 1e-4 and A_eff within 1e-3 (relative)."""
    from fibercav.modes import FiberGeometry, silica_sellmeier_index

    core = silica_sellmeier_index(WAVELENGTH_NM)
    geometry = FiberGeometry(diameter_nm=diameter_nm, wavelength_nm=WAVELENGTH_NM,
                             core_index=core)
    reference = reference_n_eff(diameter_nm, WAVELENGTH_NM, core)
    if abs(n_eff - reference) >= 1e-4:
        return f"n_eff {n_eff:.8f} vs reference {reference:.8f}"
    area = reference_area_um2(geometry, n_eff)
    if abs(area_um2 - area) / area >= 1e-3:
        return f"A_eff {area_um2:.6g} vs trapezoid {area:.6g} um^2"
    return None


class ModeSweep(Workload):
    name = "mode_sweep"
    why = "in-process HE11 root plus mode-area quadrature and cooperativity, 300-1200 nm; no startup or I/O"
    item = "diameter"
    aliases = {"throughput_per_s": "sweep_points_per_s"}
    design_finesse = 1300.0

    def setup(self) -> None:
        import importlib

        import numpy as np

        # the package re-exports a function named like the module, so the
        # module itself has to come from the import system
        coop = importlib.import_module("fibercav.cooperativity")
        modes = importlib.import_module("fibercav.modes")

        rng = np.random.default_rng([self.seed, 4])
        # 300:1200:5 nm, each point shifted up by a seeded 0-2 nm
        self.diameters = [float(d) + float(rng.uniform(0.0, 2.0)) for d in range(300, 1201, 5)]
        self.modes, self.coop = modes, coop
        self.core_index = modes.silica_sellmeier_index(WAVELENGTH_NM)
        self.first: dict[int, tuple] = {}
        self._point(self.diameters[0])

    def _point(self, diameter_nm: float):
        from fibercav.quantity import Quantity

        geometry = self.modes.FiberGeometry(diameter_nm=diameter_nm,
                                            wavelength_nm=WAVELENGTH_NM,
                                            core_index=self.core_index)
        mode = self.modes.solve_guided_mode(geometry)
        sigma0_m2 = 3.0 * (WAVELENGTH_NM * 1e-9) ** 2 / (2.0 * math.pi)
        scenario = self.coop.CooperativityScenario(
            sigma0_over_aeff=sigma0_m2 / (mode.effective_mode_area_um2 * 1e-12),
            finesse=Quantity(self.design_finesse))
        return mode, scenario, self.coop.cooperativity(scenario)

    def run_round(self, index: int, traced: bool) -> list[Op]:
        from fibercav.errors import FibercavError

        ops = []
        for number, diameter in enumerate(self.diameters):
            if self.tracer is not None:
                self.tracer.op = f"{index}:{number}"
            with METER.timing() as timing:
                try:
                    mode, scenario, value = self._point(diameter)
                    error = None
                except FibercavError as exc:
                    error = f"{type(exc).__name__}: {exc}"
            op = Op(f"d={diameter:.3f} nm", timing.seconds, timing.factor)
            ops.append(op)
            if error:
                op.fail(f"d={diameter:.3f} nm: {error}")
                continue
            outcome = (mode.effective_index, mode.effective_mode_area_um2, value.value)
            if number not in self.first:
                problem = check_mode(diameter, mode.effective_index,
                                     mode.effective_mode_area_um2)
                expected = scenario.prefactor * scenario.sigma0_over_aeff * self.design_finesse
                if problem is None and abs(value.value / expected - 1.0) > 1e-12:
                    problem = "cooperativity is not K·σ0/A_eff·F"
                if problem is None:
                    self.first[number] = outcome
            elif outcome != self.first[number]:
                problem = "differs from the first sweep"
            else:
                problem = None
            if problem:
                op.fail(f"d={diameter:.3f} nm: {problem}", wrong=True)
        return ops


WORKLOADS = {w.name: w for w in (CliSession, BatchCampaign, FitFuzz, ModeSweep)}

