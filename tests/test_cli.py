"""End-to-end command-line pipeline: exit codes, artifacts, and determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import fibercav
from fibercav.cavity import parse_spectrum_csv
from fibercav.cli import main, run_pipeline
from fibercav.errors import ValidationError
from fibercav.pulling import synthesize_pull_trace, write_pull_trace
from fibercav.records import load_run_record

T_MIRROR = "0.000867"
ALPHA_INT = "0.0031"


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, out_dir, *args):
    result = runner.invoke(main, [*args, "--out", str(out_dir)])
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result


def synth_spectrum(runner, out_dir, stem="synth", noise="0.0", seed=None):
    args = [
        "synth", "--t1", T_MIRROR, "--t2", T_MIRROR, "--alpha-int", ALPHA_INT,
        "--length-mm", "27.0", "--noise", noise, "--stem", stem,
    ]
    if seed is not None:
        args += ["--seed", str(seed)]
    result = run(runner, out_dir, *args)
    assert result.exit_code == 0, result.output
    return out_dir / f"{stem}_spectrum.csv"


class TestSynth:
    def test_writes_spectrum_report_and_record(self, runner, tmp_path):
        csv_path = synth_spectrum(runner, tmp_path)
        assert csv_path.exists()
        report = json.loads((tmp_path / "synth_report.json").read_text())
        assert report["parameters"]["t1"] == float(T_MIRROR)
        assert report["expected_finesse"] == pytest.approx(
            2.0 * math.pi / (2 * float(T_MIRROR) + float(ALPHA_INT)), rel=1e-12
        )
        record = load_run_record(tmp_path / "synth_record.json")
        assert record.results["fsr_hz"] == report["fsr_hz"]
        trace = parse_spectrum_csv(csv_path)
        assert trace.reflection is not None

    def test_deterministic_outputs(self, runner, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        a_csv = synth_spectrum(runner, a_dir, noise="0.001", seed=5)
        b_csv = synth_spectrum(runner, b_dir, noise="0.001", seed=5)
        assert a_csv.read_bytes() == b_csv.read_bytes()
        assert (a_dir / "synth_report.json").read_bytes() == (
            b_dir / "synth_report.json"
        ).read_bytes()
        rec_a = load_run_record(a_dir / "synth_record.json")
        rec_b = load_run_record(b_dir / "synth_record.json")
        assert rec_a.record_id == rec_b.record_id

    def test_different_seed_changes_noise(self, runner, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        a_csv = synth_spectrum(runner, a_dir, noise="0.001", seed=5)
        b_csv = synth_spectrum(runner, b_dir, noise="0.001", seed=6)
        assert a_csv.read_bytes() != b_csv.read_bytes()


class TestFit:
    def test_fit_recovers_synth_parameters(self, runner, tmp_path):
        csv_path = synth_spectrum(runner, tmp_path)
        result = run(runner, tmp_path, "fit", str(csv_path), "--stem", "scan")
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "scan_report.json").read_text())
        synth_report = json.loads((tmp_path / "synth_report.json").read_text())
        assert report["finesse"]["value"] == pytest.approx(
            synth_report["expected_finesse"], rel=0.01
        )
        assert report["length_mm"]["value"] == pytest.approx(27.0, rel=1e-6)
        assert len(report["peaks"]) == 3

    def test_reflection_channel(self, runner, tmp_path):
        csv_path = synth_spectrum(runner, tmp_path)
        result = run(
            runner, tmp_path, "fit", str(csv_path),
            "--channel", "reflection", "--stem", "refl",
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "refl_report.json").read_text())
        assert report["polarity"] == "dip"
        assert report["channel"] == "reflection"

    def test_emit_plot_data(self, runner, tmp_path):
        csv_path = synth_spectrum(runner, tmp_path)
        result = run(
            runner, tmp_path, "fit", str(csv_path), "--emit-plot-data",
            "--stem", "plot",
        )
        assert result.exit_code == 0, result.output
        overlay = (tmp_path / "plot_overlay.csv").read_text().splitlines()
        assert overlay[0] == "freq_offset_hz,measured,fitted,peak"
        assert len(overlay) > 100
        first_row = overlay[1].split(",")
        assert len(first_row) == 4
        float(first_row[0]), float(first_row[1]), float(first_row[2])

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = run(runner, tmp_path, "fit", "--stem", "x")
        assert result.exit_code == 2

    def test_flat_spectrum_exits_2_with_json_diagnostics(self, runner, tmp_path):
        flat = tmp_path / "flat.csv"
        rows = ["freq_offset_hz,transmission"]
        rows += [f"{float(f)!r},0.5" for f in np.linspace(-1e9, 1e9, 101)]
        flat.write_text("\n".join(rows) + "\n")
        result = run(runner, tmp_path, "fit", str(flat))
        assert result.exit_code == 2
        payload = json.loads(result.stderr.strip().splitlines()[-1])
        assert payload["error"] == "InsufficientPeaksError"

    def test_batch_mode_aggregates_failures(self, runner, tmp_path):
        spectra = tmp_path / "spectra"
        spectra.mkdir()
        synth_spectrum(runner, spectra, stem="good1")
        synth_spectrum(runner, spectra, stem="good2")
        (spectra / "broken.csv").write_text("frequency_hz,transmission\n0.0,0.5\n")
        for extra in ("good1", "good2"):
            # keep only the spectrum CSVs in the batch directory
            (spectra / f"{extra}_report.json").unlink()
            (spectra / f"{extra}_record.json").unlink()
        out = tmp_path / "results"
        out.mkdir()
        result = run(runner, out, "fit", "--batch", str(spectra))
        assert result.exit_code == 2  # the broken file dominates
        assert (out / "good1_spectrum_fit_report.json").exists()
        assert (out / "good2_spectrum_fit_report.json").exists()
        error_lines = [
            json.loads(line) for line in result.stderr.strip().splitlines() if line
        ]
        batch_errors = [e for e in error_lines if "file" in e]
        assert len(batch_errors) == 1
        assert "broken.csv" in batch_errors[0]["file"]

    def test_batch_matches_single_file_runs_in_name_order(self, runner, tmp_path):
        spectra = tmp_path / "spectra"
        spectra.mkdir()
        for stem, noise in (("c", "0.002"), ("a", "0.0"), ("b", "0.001")):
            synth_spectrum(runner, spectra, stem=stem, noise=noise)
        batch_out = tmp_path / "batch"
        result = run(runner, batch_out, "fit", "--batch", str(spectra), "--emit-plot-data")
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == [
            f"{name}_spectrum.csv: report {batch_out / f'{name}_spectrum_fit_report.json'}"
            for name in ("a", "b", "c")
        ]
        single_out = tmp_path / "single"
        for name in ("a", "b", "c"):
            stem = f"{name}_spectrum_fit"
            result = run(
                runner, single_out, "fit", str(spectra / f"{name}_spectrum.csv"),
                "--emit-plot-data", "--stem", stem,
            )
            assert result.exit_code == 0, result.output
            for suffix in ("_report.json", "_overlay.csv"):
                single = (single_out / f"{stem}{suffix}").read_bytes()
                assert (batch_out / f"{stem}{suffix}").read_bytes() == single, stem + suffix


class TestBudget:
    def test_explicit_inputs_recover_reference_budget(self, runner, tmp_path):
        t_mirror, alpha_int = float(T_MIRROR), float(ALPHA_INT)
        alpha_tot = 2 * t_mirror + alpha_int
        r_res = (1.0 - 2.0 * t_mirror / alpha_tot) ** 2
        result = run(
            runner, tmp_path, "budget",
            "--finesse", repr(2.0 * math.pi / alpha_tot),
            "--r1", repr(r_res), "--r2", repr(r_res),
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "budget_report.json").read_text())
        assert report["t1"]["value"] == pytest.approx(t_mirror, rel=1e-10)
        assert report["t2"]["value"] == pytest.approx(t_mirror, rel=1e-10)
        assert report["alpha_int"]["value"] == pytest.approx(alpha_int, rel=1e-10)

    def test_from_fit_chain(self, runner, tmp_path):
        csv_path = synth_spectrum(runner, tmp_path)
        run(runner, tmp_path, "fit", str(csv_path), "--stem", "scan")
        synth_report = json.loads((tmp_path / "synth_report.json").read_text())
        r_res = synth_report["on_resonance"]["reflection_side_1"]
        result = run(
            runner, tmp_path, "budget",
            "--from-fit", str(tmp_path / "scan_report.json"),
            "--r1", repr(r_res), "--r2", repr(r_res),
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "budget_report.json").read_text())
        assert report["t1"]["value"] == pytest.approx(float(T_MIRROR), rel=5e-3)
        assert report["alpha_int"]["value"] == pytest.approx(
            float(ALPHA_INT), rel=5e-3
        )

    def test_wrong_branch_exits_4(self, runner, tmp_path):
        t_mirror, alpha_int = float(T_MIRROR), float(ALPHA_INT)
        alpha_tot = 2 * t_mirror + alpha_int
        r_res = (1.0 - 2.0 * t_mirror / alpha_tot) ** 2
        result = run(
            runner, tmp_path, "budget",
            "--finesse", repr(2.0 * math.pi / alpha_tot),
            "--r1", repr(r_res), "--r2", repr(r_res),
            "--regime1", "over", "--regime2", "over",
        )
        assert result.exit_code == 4
        payload = json.loads(result.stderr.strip().splitlines()[-1])
        assert payload["error"] == "MeasurementInconsistencyError"

    def test_needs_finesse_from_somewhere(self, runner, tmp_path):
        result = run(runner, tmp_path, "budget", "--r1", "0.4", "--r2", "0.4")
        assert result.exit_code == 2


class TestPull:
    @staticmethod
    def write_trace(path, **kwargs):
        trace = synthesize_pull_trace(**kwargs)
        write_pull_trace(trace, path)
        return trace

    def test_classification_and_transparency(self, runner, tmp_path):
        path = tmp_path / "h2_pull.csv"
        self.write_trace(path, kind="ramp", final_loss=0.08, samples=400)
        result = run(runner, tmp_path, "pull", str(path), "--stem", "verdict")
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "verdict_report.json").read_text())
        assert report["classification"]["label"] == "H2-like"

    def test_growth_fit_and_plot_data(self, runner, tmp_path):
        path = tmp_path / "ramp.csv"
        self.write_trace(path, kind="ramp", final_loss=0.06, duration_s=120.0,
                         samples=300)
        result = run(
            runner, tmp_path, "pull", str(path), "--growth", "linear",
            "--emit-plot-data", "--stem", "rate",
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert report["growth_fit"]["parameters"]["rate"]["value"] == pytest.approx(
            0.06 / 120.0, rel=1e-9
        )
        smoothed = (tmp_path / "rate_smoothed.csv").read_text().splitlines()
        assert smoothed[0] == "time_s,loss_raw,loss_smoothed"
        assert len(smoothed) == 301

    def test_sidecar_hash_recorded(self, runner, tmp_path):
        path = tmp_path / "pull.csv"
        self.write_trace(path, kind="flat", samples=50)
        result = run(runner, tmp_path, "pull", str(path), "--stem", "meta")
        assert result.exit_code == 0, result.output
        record = load_run_record(tmp_path / "meta_record.json")
        assert "trace_metadata" in record.inputs
        assert (
            record.inputs["trace"]["sha256"]
            != record.inputs["trace_metadata"]["sha256"]
        )

    def test_bad_trace_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,loss_primary\n0.0,2.5\n1.0,0.5\n")
        result = run(runner, tmp_path, "pull", str(path))
        assert result.exit_code == 2

    @pytest.mark.parametrize("sidecar", ['{"probe_wavelength_nm": "abc"}', "[1, 2]"])
    def test_bad_sidecar_exits_2_with_one_json_line(self, runner, tmp_path, sidecar):
        path = tmp_path / "pull.csv"
        self.write_trace(path, kind="flat", samples=50)
        (tmp_path / "pull.meta.json").write_text(sidecar)
        result = run(runner, tmp_path, "pull", str(path))
        assert result.exit_code == 2
        (line,) = result.stderr.strip().splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ParseError"
        assert payload["details"] == {"path": str(tmp_path / "pull.meta.json")}

    def test_batch_reports_a_bad_sidecar_and_runs_the_rest(self, runner, tmp_path):
        traces = tmp_path / "traces"
        traces.mkdir()
        for name in ("a", "b"):
            self.write_trace(traces / f"{name}.csv", kind="flat", samples=50)
        (traces / "a.meta.json").write_text('{"probe_wavelength_nm": "abc"}')
        out = tmp_path / "out"
        result = run(runner, out, "pull", "--batch", str(traces), "--emit-plot-data")
        assert result.exit_code == 2
        (line,) = result.stderr.strip().splitlines()
        payload = json.loads(line)
        assert (payload["file"], payload["error"]) == ("a.csv", "ParseError")
        assert payload["details"] == {"path": str(traces / "a.meta.json")}
        assert "b.csv: report" in result.stdout
        assert (out / "b_pull_report.json").exists()
        assert not (out / "a_pull_report.json").exists()


class TestModes:
    def test_solves_the_operating_geometry(self, runner, tmp_path):
        result = run(runner, tmp_path, "modes", "--diameter-nm", "650")
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "modes_report.json").read_text())
        assert report["n_eff"] == pytest.approx(1.064782843511696, rel=1e-9)
        assert report["a_eff_um2"] == pytest.approx(1.3903882261350557, rel=1e-9)
        assert report["v_number"] == pytest.approx(1.5332844694162284, rel=1e-12)

    def test_sellmeier_flag_changes_the_core_index(self, runner, tmp_path):
        default_dir = tmp_path / "default"
        sellmeier_dir = tmp_path / "sellmeier"
        default_dir.mkdir()
        sellmeier_dir.mkdir()
        run(runner, default_dir, "modes", "--diameter-nm", "650")
        run(runner, sellmeier_dir, "modes", "--diameter-nm", "650", "--sellmeier")
        n_default = json.loads((default_dir / "modes_report.json").read_text())["n_eff"]
        n_sellmeier = json.loads(
            (sellmeier_dir / "modes_report.json").read_text()
        )["n_eff"]
        assert n_sellmeier != n_default
        assert n_sellmeier == pytest.approx(n_default, rel=1e-2)

    def test_invalid_geometry_exits_2(self, runner, tmp_path):
        result = run(runner, tmp_path, "modes", "--diameter-nm", "-5")
        assert result.exit_code == 2


class TestCoop:
    def test_reference_scenario(self, runner, tmp_path):
        result = run(runner, tmp_path, "coop", "--reference")
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "coop_report.json").read_text())
        assert report["cooperativity"]["value"] == pytest.approx(90.0, rel=1e-12)

    def test_explicit_finesse(self, runner, tmp_path):
        result = run(
            runner, tmp_path, "coop", "--reference",
            "--finesse", "1013.5", "--finesse-sigma", "50.0",
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "coop_report.json").read_text())
        assert report["cooperativity"]["value"] == pytest.approx(45.0, rel=1e-10)

    def test_required_finesse_for_target(self, runner, tmp_path):
        result = run(runner, tmp_path, "coop", "--reference", "--target", "45.0")
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "coop_report.json").read_text())
        assert report["required_finesse"]["finesse"] == pytest.approx(
            2027.0 / 2.0, rel=1e-10
        )

    def test_finesse_required_without_reference(self, runner, tmp_path):
        result = run(runner, tmp_path, "coop")
        assert result.exit_code == 2


class TestReport:
    def test_renders_all_record_kinds(self, runner, tmp_path):
        csv_path = synth_spectrum(runner, tmp_path)
        run(runner, tmp_path, "fit", str(csv_path), "--stem", "scan")
        run(runner, tmp_path, "coop", "--reference", "--stem", "proj")
        run(runner, tmp_path, "budget", "--finesse", "2027", "--r1", "0.1", "--r2", "0.1")
        run(runner, tmp_path, "modes", "--diameter-nm", "650")
        trace_path = tmp_path / "trace.csv"
        write_pull_trace(synthesize_pull_trace(kind="flat", samples=50), trace_path)
        run(runner, tmp_path, "pull", str(trace_path))
        stems = ("synth", "scan", "proj", "budget", "modes", "pull")
        result = run(
            runner, tmp_path, "report",
            *(str(tmp_path / f"{stem}_record.json") for stem in stems),
        )
        assert result.exit_code == 0, result.output
        summary = (tmp_path / "report_summary.txt").read_text()
        assert "finesse" in summary.lower()
        assert "cooperativity" in summary.lower()
        # each record is rendered by its own verb's renderer
        for line in ("  expected finesse:", "  peaks fitted: 3", "  cooperativity:",
                     "  round-trip loss:", "  V-number:", "  verdict:"):
            assert line in summary, line
        assert "unrecognized" not in summary

    def test_tampered_record_exits_2(self, runner, tmp_path):
        run(runner, tmp_path, "coop", "--reference", "--stem", "proj")
        record_path = tmp_path / "proj_record.json"
        payload = json.loads(record_path.read_text())
        payload["results"]["cooperativity"]["value"] = 9000.0
        record_path.write_text(json.dumps(payload))
        result = run(runner, tmp_path, "report", str(record_path))
        assert result.exit_code == 2
        payload = json.loads(result.stderr.strip().splitlines()[-1])
        assert payload["error"] == "TamperedRecordError"

    def test_record_without_integrity_names_the_file(self, runner, tmp_path):
        record_path = tmp_path / "rec.json"
        record_path.write_text('{"a": 1}')
        result = run(runner, tmp_path, "report", str(record_path))
        assert result.exit_code == 2
        (line,) = result.stderr.strip().splitlines()
        assert json.loads(line)["details"] == {"path": str(record_path)}

    def test_non_utf8_record_exits_2(self, runner, tmp_path):
        record_path = tmp_path / "binary_record.json"
        record_path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        result = run(runner, tmp_path, "report", str(record_path))
        assert result.exit_code == 2
        (line,) = result.stderr.strip().splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ParseError"
        assert payload["details"] == {"path": str(record_path)}


@pytest.mark.parametrize(
    "args, error",
    [
        (["synth", "--t1", T_MIRROR, "--t2", T_MIRROR, "--length-mm", "27", "--samples", "0"],
         "ValidationError"),
        (["synth", "--t1", T_MIRROR, "--t2", T_MIRROR, "--length-mm", "27", "--span-fsr", "0"],
         "ValidationError"),
        (["modes", "--diameter-nm", "650", "--wavelength-nm", "0"], "DomainError"),
        (["coop", "--finesse", "2000", "--prefactor", "0"], "DomainError"),
        (["fit", "SPECTRUM", "--group-index", "0"], "DomainError"),
    ],
    ids=["synth-samples", "synth-span-fsr", "modes-wavelength", "coop-prefactor",
         "fit-group-index"],
)
def test_explicit_zero_is_rejected_not_defaulted(runner, tmp_path, args, error):
    if "SPECTRUM" in args:
        spectrum = synth_spectrum(runner, tmp_path)
        args = [str(spectrum) if arg == "SPECTRUM" else arg for arg in args]
    out = tmp_path / "out"
    result = run(runner, out, *args)
    assert result.exit_code == 2
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert payload["error"] == error
    assert not (out / f"{args[0]}_report.json").exists()


@pytest.mark.parametrize(
    "verb, args, missing",
    [
        ("synth", {"t1": 0.000867}, ["t2", "length_mm"]),
        ("fit", {"channel": "reflection"}, ["spectrum"]),
        ("budget", {"finesse": 2000.0}, ["r1", "r2"]),
        ("pull", {}, ["trace"]),
        ("modes", {"wavelength_nm": 1550.0}, ["diameter_nm"]),
        ("report", {}, ["records"]),
    ],
    ids=["synth", "fit", "budget", "pull", "modes", "report"],
)
def test_run_pipeline_names_missing_arguments(tmp_path, verb, args, missing):
    out = tmp_path / "out"
    with pytest.raises(ValidationError) as info:
        run_pipeline(verb, args, out_dir=out)
    assert info.value.details == {"subcommand": verb, "missing": missing}
    assert not out.exists()


def test_run_pipeline_coop_needs_a_finesse_or_the_reference(tmp_path):
    # coop has no required argument; its handler asks for one of the two
    with pytest.raises(ValidationError, match="provide --finesse or --reference"):
        run_pipeline("coop", {}, out_dir=tmp_path)


class TestConfigIntegration:
    def test_config_snapshot_lands_in_the_record(self, runner, tmp_path):
        config = tmp_path / "tool.ini"
        config.write_text("[general]\nseed = 11\n[fit]\nbackground = constant\n")
        result = run(
            runner, tmp_path, "coop", "--reference", "--config", str(config),
        )
        assert result.exit_code == 0, result.output
        record = load_run_record(tmp_path / "coop_record.json")
        assert record.config_snapshot["seed"] == 11
        assert record.config_snapshot["background"] == "constant"

    def test_seed_flag_overrides_config(self, runner, tmp_path):
        spectra = {}
        for name, config_seed, flag in (("flag", 11, ["--seed", "99"]), ("config", 99, [])):
            config = tmp_path / f"{name}.ini"
            config.write_text(f"[general]\nseed = {config_seed}\n")
            out = tmp_path / name
            result = run(
                runner, out, "synth", "--t1", T_MIRROR, "--t2", T_MIRROR,
                "--length-mm", "27.0", "--noise", "0.001", "--config", str(config), *flag,
            )
            assert result.exit_code == 0, result.output
            report = json.loads((out / "synth_report.json").read_text())
            assert report["parameters"]["seed"] == 99
            spectra[name] = (out / "synth_spectrum.csv").read_bytes()
        assert spectra["flag"] == spectra["config"]

    def test_absorption_section_exits_2(self, runner, tmp_path):
        config = tmp_path / "tool.ini"
        config.write_text("[absorption]\nbands = oh\n")
        result = run(runner, tmp_path, "coop", "--reference", "--config", str(config))
        assert result.exit_code == 2
        payload = json.loads(result.stderr.strip().splitlines()[-1])
        assert payload["error"] == "ValidationError"
        assert "[absorption]" in payload["message"]

    def test_bad_config_exits_2(self, runner, tmp_path):
        config = tmp_path / "tool.ini"
        config.write_text("[general]\nseed = many\n")
        result = run(runner, tmp_path, "coop", "--reference", "--config", str(config))
        assert result.exit_code == 2
        (line,) = result.stderr.strip().splitlines()
        assert json.loads(line)["details"] == {"path": str(config)}

    def test_invalid_config_value_names_the_file(self, runner, tmp_path):
        config = tmp_path / "tool.ini"
        config.write_text("[general]\nseed = -3\n")
        result = run(runner, tmp_path, "coop", "--reference", "--config", str(config))
        assert result.exit_code == 2
        (line,) = result.stderr.strip().splitlines()
        payload = json.loads(line)
        assert payload["details"] == {"path": str(config)}
        assert payload["message"] == f"{config}: seed must be >= 0"

    def test_non_utf8_config_exits_2(self, runner, tmp_path):
        config = tmp_path / "tool.ini"
        config.write_text("[general]\nseed = 1\n", encoding="utf-16")
        result = run(runner, tmp_path, "coop", "--reference", "--config", str(config))
        assert result.exit_code == 2
        (line,) = result.stderr.strip().splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ValidationError"
        assert payload["details"] == {"path": str(config)}


@pytest.mark.parametrize("args", [
    ["fit", "SPECTRUM"],
    ["budget", "--finesse", "2000", "--r1", "0.1", "--r2", "0.1"],
    ["pull", "TRACE"],
    ["modes", "--diameter-nm", "650"],
    ["coop", "--reference"],
    ["report", "RECORD"],
], ids=lambda args: args[0])
def test_seed_is_a_synth_option_only(runner, tmp_path, args):
    trace = tmp_path / "trace.csv"
    write_pull_trace(synthesize_pull_trace(kind="flat", samples=50), trace)
    record = tmp_path / "coop_record.json"
    record.write_text("{}")
    files = {"SPECTRUM": str(trace), "TRACE": str(trace), "RECORD": str(record)}
    out = tmp_path / "out"
    result = run(runner, out, *(files.get(arg, arg) for arg in args), "--seed", "3")
    assert result.exit_code == 2
    assert "No such option" in result.stderr
    assert not out.exists()


def declared_console_script(name):
    """Return ``(target, version)`` for the console script *name*.

    The target (``"module:func"``) and the version come from ``pyproject.toml``.
    Without ``tomllib`` (Python 3.10) they come from the installed
    distribution's entry points; with neither, the caller is skipped.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        from importlib import metadata

        entry_points = metadata.entry_points(group="console_scripts", name=name)
        if not entry_points:
            pytest.importorskip("tomllib")
        (entry_point,) = entry_points
        return entry_point.value, entry_point.dist.version
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    return project["scripts"][name], project["version"]


class TestConsoleScript:
    def test_entry_point_reports_version(self):
        target, version = declared_console_script("fibercav")
        module, func = target.split(":")
        # Run the declared target the way a generated console-script wrapper
        # does, against the same fibercav package this test process imported.
        package_root = str(Path(fibercav.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])
        )
        wrapper = f"import sys; from {module} import {func} as m; sys.exit(m())"
        runs = [([sys.executable, "-c", wrapper, "--version"], env)]
        # Where the package is installed, check the generated wrapper as well.
        installed = shutil.which("fibercav")
        if installed is not None:
            runs.append(([installed, "--version"], None))
        for command, run_env in runs:
            proc = subprocess.run(command, capture_output=True, text=True, env=run_env)
            assert proc.returncode == 0, proc.stderr
            assert "fibercav" in proc.stdout
            assert version in proc.stdout.split()
            assert proc.stdout.split()[-1] == fibercav.__version__
