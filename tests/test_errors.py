"""Every error carries one flat ``details`` mapping."""

import ast
import json
from pathlib import Path

import pytest

import fibercav
from fibercav.errors import NumericalFailureError, TamperedRecordError
from fibercav.modes import FiberGeometry, solve_he11
from fibercav.records import load_run_record, make_run_record, write_run_record

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
    assert set(info.value.details) == {"stored", "computed"}
    assert info.value.as_dict()["details"]["stored"] == payload["integrity"]
