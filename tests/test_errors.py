"""Every error carries one flat ``details`` mapping."""

import ast
import json
from pathlib import Path

import pytest

import fibercav
from fibercav.config import load_config
from fibercav.errors import NumericalFailureError, TamperedRecordError, ValidationError
from fibercav.modes import FiberGeometry, solve_he11
from fibercav.records import file_digest, load_run_record, make_run_record, write_run_record

SOURCE = Path(fibercav.__file__).parent


def test_no_call_passes_a_details_keyword():
    # ``details=`` would land under details["details"], nested twice
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and any(k.arg == "details" for k in node.keywords):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_unbracketed_mode_root_details_are_flat():
    with pytest.raises(NumericalFailureError) as info:
        solve_he11(FiberGeometry(diameter_nm=150.0, wavelength_nm=1389.0))
    assert set(info.value.details) == {"diameter_nm", "wavelength_nm", "v_number"}
    assert info.value.details["diameter_nm"] == 150.0


def test_tampered_record_details_are_flat(tmp_path):
    record = make_run_record({"spectrum": {"path": "a.csv", "sha256": "ab" * 32}}, {}, {"x": 1})
    path = tmp_path / "record.json"
    write_run_record(record, path)
    payload = json.loads(path.read_text())
    payload["results"]["x"] = 2
    path.write_text(json.dumps(payload))
    with pytest.raises(TamperedRecordError) as info:
        load_run_record(path)
    assert set(info.value.details) == {"path", "stored", "computed"}
    assert info.value.as_dict()["details"]["stored"] == payload["integrity"]


def _record(edit):
    """Write a valid run record, then apply ``edit`` to its JSON payload."""
    def write(path):
        record = make_run_record({"spectrum": {"path": "a.csv", "sha256": "ab" * 32}}, {}, {"x": 1})
        write_run_record(record, path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return write


@pytest.mark.parametrize("loader, content", [
    (load_config, None),
    (load_config, "DIRECTORY"),
    (load_config, "seed = 1\n"),
    (load_config, "[telemetry]\nenabled = yes\n"),
    (load_config, "[general]\nspeed = 3\n"),
    (load_config, "[general]\nseed = many\n"),
    (load_config, "[general]\ngroup_index = fast\n"),
    (load_config, "[general]\nseed = -3\n"),
    (load_run_record, None),
    (load_run_record, "{not json"),
    (load_run_record, "[1, 2]"),
    (load_run_record, '{"a": 1}'),
    (load_run_record, '{"integrity": "00"}'),
    (load_run_record, _record(lambda payload: payload["results"].update(x=2))),
    (load_run_record, _record(lambda payload: payload.update(record_id="0" * 64))),
    (file_digest, None),
    (file_digest, "DIRECTORY"),
], ids=[
    "config-missing", "config-unreadable", "config-no-section", "config-unknown-section",
    "config-unknown-key", "config-bad-int", "config-bad-float", "config-invalid-value",
    "record-missing", "record-bad-json", "record-not-object", "record-no-integrity",
    "record-missing-fields", "record-tampered", "record-id-mismatch",
    "digest-missing", "digest-unreadable",
])
def test_loader_errors_name_the_file(tmp_path, loader, content):
    path = tmp_path / "input"
    if content == "DIRECTORY":
        path.mkdir()
    elif callable(content):
        content(path)
    elif content is not None:
        path.write_text(content)
    with pytest.raises(ValidationError) as info:
        loader(path)
    assert info.value.details["path"] == str(path)
    assert str(path) in info.value.message
    assert all(isinstance(value, (str, int, float)) for value in info.value.details.values())
