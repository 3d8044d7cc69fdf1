"""Configuration loading and tamper-evident run records."""

import ast
import dataclasses
import hashlib
import json
from datetime import datetime
from pathlib import Path

import pytest

import fibercav
from fibercav.config import CONFIG_ENV_VAR, ToolConfig, load_config
from fibercav.errors import ParseError, TamperedRecordError, ValidationError
from fibercav.records import (
    RunRecord,
    compute_record_id,
    file_digest,
    load_run_record,
    make_run_record,
    write_run_record,
)


class TestToolConfigDefaults:
    def test_defaults_are_complete_and_valid(self, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        config = load_config()
        assert config == ToolConfig()
        assert config.seed == 0
        assert config.group_index == pytest.approx(1.462)
        assert config.background == "linear"
        assert config.regime_1 == "under"
        assert config.cladding_index == 1.0

    def test_empty_file_equals_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert load_config(path) == ToolConfig()

    def test_as_dict_covers_every_field(self):
        payload = ToolConfig().as_dict()
        assert set(payload) == {
            "seed", "group_index", "background", "window_fwhm_multiple",
            "prominence_threshold", "max_iterations", "regime_1", "regime_2",
            "final_loss_high", "final_loss_low", "reference_threshold",
            "core_index", "cladding_index", "prefactor", "sigma0_over_aeff",
        }

    def test_every_field_is_read_outside_the_config_module(self):
        # a key no analysis reads is a knob that only changes the record id
        read = set()
        for path in sorted(Path(fibercav.__file__).parent.glob("*.py")):
            if path.name == "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "config"):
                    read.add(node.attr)
        unread = {spec.name for spec in dataclasses.fields(ToolConfig)} - read
        assert unread == set()


class TestLoadConfig:
    def test_sections_and_key_types(self, tmp_path):
        path = tmp_path / "tool.ini"
        path.write_text(
            "[general]\n"
            "seed = 7\n"
            "group_index = 1.5\n"
            "[fit]\n"
            "background = linear+etalon\n"
            "max_iterations = 400\n"
            "[budget]\n"
            "regime_1 = overcoupled\n"
            "regime_2 = under\n"
            "[cooperativity]\n"
            "prefactor = 1.0\n"
        )
        config = load_config(path)
        assert config.seed == 7
        assert config.group_index == 1.5
        assert config.background == "linear+etalon"
        assert config.max_iterations == 400
        assert config.regime_1 == "over"  # normalized spelling
        assert config.regime_2 == "under"
        assert config.prefactor == 1.0
        # untouched keys keep their defaults
        assert config.prominence_threshold == 0.1

    def test_env_var_is_consulted(self, tmp_path, monkeypatch):
        path = tmp_path / "env.ini"
        path.write_text("[general]\nseed = 42\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        assert load_config().seed == 42

    def test_explicit_path_beats_env_var(self, tmp_path, monkeypatch):
        env_file = tmp_path / "env.ini"
        env_file.write_text("[general]\nseed = 1\n")
        arg_file = tmp_path / "arg.ini"
        arg_file.write_text("[general]\nseed = 2\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(env_file))
        assert load_config(arg_file).seed == 2

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_config(tmp_path / "absent.ini")

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[telemetry]\nenabled = yes\n")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[general]\nspeed = 3\n")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[general]\ngroup_index = fast\n")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_non_integer_seed_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[general]\nseed = 1.5\n")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "utf16.ini"
        path.write_text("[general]\nseed = 1\n", encoding="utf-16")
        with pytest.raises(ValidationError) as info:
            load_config(path)
        assert info.value.details == {"path": str(path)}


class TestToolConfigValidation:
    def test_regime_spellings(self):
        assert ToolConfig(regime_1="undercoupled").regime_1 == "under"
        assert ToolConfig(regime_2="OVERCOUPLED").regime_2 == "over"
        with pytest.raises(ValidationError):
            ToolConfig(regime_1="critical")

    def test_range_checks(self):
        with pytest.raises(ValidationError):
            ToolConfig(prominence_threshold=1.5)
        with pytest.raises(ValidationError):
            ToolConfig(final_loss_high=0.01, final_loss_low=0.02)
        with pytest.raises(ValidationError):
            ToolConfig(core_index=1.0)
        with pytest.raises(ValidationError):
            ToolConfig(seed=-1)
        with pytest.raises(ValidationError):
            ToolConfig(background="quadratic")


def example_record(**overrides):
    inputs = overrides.pop(
        "inputs", {"spectrum": {"path": "scan.csv", "sha256": "ab" * 32}}
    )
    config = overrides.pop("config", ToolConfig().as_dict())
    results = overrides.pop("results", {"finesse": {"value": 1300.0, "sigma": 40.0}})
    return make_run_record(inputs, config, results, **overrides)


class TestRunRecord:
    def test_record_id_ignores_results_and_timestamps(self):
        a = example_record(created_at="2026-08-16T00:00:00+00:00")
        b = example_record(
            created_at="2026-08-17T12:34:56+00:00",
            results={"finesse": {"value": 9.0, "sigma": 1.0}},
        )
        assert a.record_id == b.record_id

    def test_record_id_tracks_inputs_and_config(self):
        base = example_record()
        other_input = example_record(
            inputs={"spectrum": {"path": "scan.csv", "sha256": "cd" * 32}}
        )
        other_config = example_record(config=ToolConfig(seed=1).as_dict())
        assert base.record_id != other_input.record_id
        assert base.record_id != other_config.record_id

    def test_forged_record_id_rejected_at_construction(self):
        good = example_record()
        with pytest.raises(ValidationError):
            RunRecord(
                record_id="0" * 64,
                created_at=good.created_at,
                inputs=good.inputs,
                config_snapshot=good.config_snapshot,
                results=good.results,
            )

    def test_default_timestamp_is_iso8601_utc(self):
        record = example_record()
        stamp = datetime.fromisoformat(record.created_at)
        assert stamp.utcoffset() is not None
        assert stamp.utcoffset().total_seconds() == 0.0


class TestRecordIo:
    def test_round_trip(self, tmp_path):
        record = example_record()
        path = tmp_path / "run_record.json"
        write_run_record(record, path)
        assert load_run_record(path) == record

    @pytest.mark.parametrize(
        "field_name,value",
        [
            ("created_at", "2030-01-01T00:00:00+00:00"),
            ("tool_version", "99.0.0"),
            ("record_id", "0" * 64),
            ("results", {"finesse": {"value": 9999.0, "sigma": 1.0}}),
        ],
    )
    def test_single_field_edits_are_detected(self, tmp_path, field_name, value):
        record = example_record()
        path = tmp_path / "run_record.json"
        write_run_record(record, path)
        payload = json.loads(path.read_text())
        payload[field_name] = value
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        with pytest.raises(TamperedRecordError):
            load_run_record(path)

    def test_config_edit_with_recomputed_integrity_still_detected(self, tmp_path):
        # an editor who re-seals the integrity hash still cannot touch the
        # inputs/config without invalidating the record id
        record = example_record()
        path = tmp_path / "run_record.json"
        write_run_record(record, path)
        payload = json.loads(path.read_text())
        del payload["integrity"]
        payload["config_snapshot"]["seed"] = 999
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        payload["integrity"] = hashlib.sha256(canonical.encode()).hexdigest()
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        with pytest.raises(TamperedRecordError):
            load_run_record(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "run_record.json"
        write_run_record(example_record(), path)
        path.write_bytes(path.read_text().encode("utf-16"))
        with pytest.raises(ParseError) as info:
            load_run_record(path)
        assert info.value.details == {"path": str(path)}

    def test_missing_integrity_rejected(self, tmp_path):
        record = example_record()
        path = tmp_path / "run_record.json"
        write_run_record(record, path)
        payload = json.loads(path.read_text())
        del payload["integrity"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_run_record(path)

    def test_malformed_records_rejected(self, tmp_path):
        bad_json = tmp_path / "a.json"
        bad_json.write_text("{oops")
        with pytest.raises(ParseError):
            load_run_record(bad_json)
        not_object = tmp_path / "b.json"
        not_object.write_text("[1, 2]")
        with pytest.raises(ParseError):
            load_run_record(not_object)
        with pytest.raises(ParseError):
            load_run_record(tmp_path / "absent.json")

    def test_missing_required_field_rejected(self, tmp_path):
        record = example_record()
        path = tmp_path / "run_record.json"
        write_run_record(record, path)
        payload = json.loads(path.read_text())
        del payload["inputs"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_run_record(path)


class TestFileDigest:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"spectral data \x00\x01" * 1000)
        assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            file_digest(tmp_path / "absent.bin")


class TestComputeRecordId:
    def test_deterministic_and_order_independent(self):
        inputs = {"b": {"path": "x", "sha256": "1"}, "a": {"path": "y", "sha256": "2"}}
        flipped = {"a": {"path": "y", "sha256": "2"}, "b": {"path": "x", "sha256": "1"}}
        config = {"z": 1, "y": 2}
        assert compute_record_id(inputs, config) == compute_record_id(flipped, config)
