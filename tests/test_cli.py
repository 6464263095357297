import json
import subprocess
import sys
from pathlib import Path

import pytest

from qguard import (
    DocumentError,
    NoiseModel,
    RecordingAdapter,
    SimulatorAdapter,
    calibration_to_dict,
    circuit_to_dict,
    packed_chsh_circuit,
    phi_plus,
    synthetic_calibration_for,
)
from qguard.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_FAILED,
    EXIT_PASSED,
    EXIT_RUNTIME_ERROR,
    main,
    validate_workflow,
)


def workflow_doc(**overrides):
    doc = {
        "backend": {
            "type": "simulator",
            "noise": {"p1": 0.0, "p2": 0.0, "readout_flip": 0.0},
            "seed": 9,
        },
        "constraint": {"type": "packed_chsh", "policy": {"kind": "min", "threshold": 2.2}},
        "main_circuit": circuit_to_dict(phi_plus()),
        "constraint_shots": 4000,
        "main_shots": 1000,
        "report_path": "report.json",
    }
    doc.update(overrides)
    return doc


def write_workflow(directory, **overrides):
    path = directory / "workflow.json"
    path.write_text(json.dumps(workflow_doc(**overrides)))
    return path


def strip_timestamps(node):
    if isinstance(node, dict):
        return {
            key: ("<ts>" if key.endswith("_at") else strip_timestamps(value))
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [strip_timestamps(value) for value in node]
    return node


# --- validate --------------------------------------------------------------


def test_validate_clean_workflow(tmp_path, capsys):
    assert main(["validate", str(write_workflow(tmp_path))]) == EXIT_PASSED
    assert capsys.readouterr().out == ""


def test_validate_workflow_function_returns_no_diagnostics(tmp_path):
    assert validate_workflow(workflow_doc(), tmp_path) == []


def test_validate_reports_each_problem_with_its_path(tmp_path, capsys):
    doc = workflow_doc(
        backend={"type": "replay", "recording_file": "missing.json"},
        constraint={"type": "chsh_v2"},
        main_circuit=None,
        constraint_shots=0,
    )
    del doc["main_circuit"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_CONFIG_ERROR
    out = capsys.readouterr().out
    assert "backend.recording_file" in out
    assert "constraint.type" in out
    assert "main_circuit" in out
    assert "constraint_shots" in out


def test_validate_catches_bad_noise_and_seed(tmp_path):
    doc = workflow_doc(
        backend={"type": "simulator", "noise": {"p1": 1.5}, "seed": -1}
    )
    paths = {d.path for d in validate_workflow(doc, tmp_path)}
    assert "backend.noise.p1" in paths
    assert "backend.seed" in paths


def test_validate_catches_unknown_fields(tmp_path):
    doc = workflow_doc(extra_field=1)
    doc["backend"]["recording_file"] = "x.json"  # not a simulator field
    diagnostics = validate_workflow(doc, tmp_path)
    messages = [str(d) for d in diagnostics]
    assert any("extra_field" in m for m in messages)
    assert any("recording_file" in m for m in messages)


def test_validate_checks_referenced_calibration_file(tmp_path):
    doc = workflow_doc()
    doc["backend"]["calibration_file"] = "cal.json"
    paths = {d.path for d in validate_workflow(doc, tmp_path)}
    assert "backend.calibration_file" in paths  # file does not exist

    (tmp_path / "cal.json").write_text("{\"not\": \"a calibration\"}")
    paths = {d.path for d in validate_workflow(doc, tmp_path)}
    assert "backend.calibration_file" in paths  # file exists but malformed


def test_validate_checks_inline_circuit(tmp_path):
    doc = workflow_doc(main_circuit={"num_qubits": 0, "gates": [], "measured_qubits": []})
    paths = {d.path for d in validate_workflow(doc, tmp_path)}
    assert any(p.startswith("main_circuit") for p in paths)


def test_validate_rejects_non_object_document(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    assert main(["validate", str(path)]) == EXIT_CONFIG_ERROR
    assert "configuration object" in capsys.readouterr().out


def test_validate_rejects_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == EXIT_CONFIG_ERROR
    assert "invalid JSON" in capsys.readouterr().out


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_CONFIG_ERROR


def test_validate_rejects_a_null_report_path(tmp_path, capsys):
    assert main(["validate", str(write_workflow(tmp_path, report_path=None))]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().out.startswith("report_path: ")


def test_run_rejects_a_null_report_path_before_running_anything(tmp_path, monkeypatch, capsys):
    # A null report_path used to pass validation, so run spent both
    # circuits' shots before it failed to write the report.
    import qguard.backends

    def no_run(*args):
        raise AssertionError("the backend must not run")

    monkeypatch.setattr(qguard.backends, "run_shots", no_run)
    assert main(["run", str(write_workflow(tmp_path, report_path=None))]) == EXIT_CONFIG_ERROR
    assert "report_path" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_diagnostics_are_document_errors(tmp_path):
    diagnostics = validate_workflow(workflow_doc(constraint_shots=0), tmp_path)
    assert [(type(d), d.path) for d in diagnostics] == [(DocumentError, "constraint_shots")]
    assert str(diagnostics[0]).startswith("constraint_shots: ")


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"backend": {"type": ["simulator"]}}, "backend.type"),
        ({"constraint": {"type": ["packed_chsh"]}}, "constraint.type"),
    ],
    ids=["backend_type", "constraint_type"],
)
def test_validate_reports_a_list_valued_type(tmp_path, capsys, overrides, path):
    # Both used to escape as a bare TypeError: unhashable type.
    assert main(["validate", str(write_workflow(tmp_path, **overrides))]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().out.startswith(f"{path}: ")


# --- run: exit statuses and report -----------------------------------------


def test_run_passing_workflow(tmp_path, capsys):
    config = write_workflow(tmp_path)
    assert main(["run", str(config)]) == EXIT_PASSED
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {
        "branch",
        "config",
        "finished_at",
        "introspection",
        "main_result",
        "started_at",
        "version",
    }
    assert report["branch"] == "passed"
    assert report["introspection"]["passed"] is True
    assert report["introspection"]["scores"]["CHSH_score"] >= 2.2
    assert set(report["main_result"]["counts"]) <= {"00", "11"}
    assert report["main_result"]["shots"] == 1000
    assert report["config"]["backend"]["seed"] == 9
    assert report["config"]["main_shots"] == 1000
    assert capsys.readouterr().err == ""


def test_run_failing_workflow(tmp_path, capsys):
    config = write_workflow(
        tmp_path,
        backend={
            "type": "simulator",
            "noise": {"p1": 0.0, "p2": 0.3, "readout_flip": 0.0},
            "seed": 9,
        },
    )
    assert main(["run", str(config)]) == EXIT_FAILED
    assert "failed; skipping main circuit" in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["branch"] == "failed"
    assert "main_result" not in report
    assert report["introspection"]["scores"]["CHSH_score"] < 2.2


def test_run_missing_config(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == EXIT_CONFIG_ERROR


def test_run_rejects_a_config_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == EXIT_CONFIG_ERROR
    assert "invalid JSON" in capsys.readouterr().err


def test_run_reports_a_report_it_cannot_write(tmp_path, capsys):
    config = write_workflow(tmp_path, report_path="no_such_directory/report.json")
    assert main(["run", str(config)]) == EXIT_RUNTIME_ERROR
    assert "cannot write report" in capsys.readouterr().err


def test_run_judges_the_snapshot_of_a_calibration_file(tmp_path):
    # Every qubit has T1 = 40 us; the synthetic snapshot has 120 us.
    snapshot = synthetic_calibration_for(NoiseModel.ideal(), num_qubits=2)
    weak = [{"t1_us": 40.0, "t2_us": 30.0, "readout_error": 0.0}] * 2
    (tmp_path / "cal.json").write_text(json.dumps({**calibration_to_dict(snapshot), "qubits": weak}))
    backend = {"type": "simulator", "calibration_file": "cal.json"}
    constraint = {"type": "calibration", "criteria": {"min_t1_us": 100}}
    config = write_workflow(tmp_path, backend=backend, constraint=constraint)
    assert main(["run", str(config)]) == EXIT_FAILED
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["backend"]["calibration_file"] == "cal.json"
    assert report["introspection"]["scores"] == {"worst_t1_us": 40.0}


def test_run_invalid_workflow_writes_no_report(tmp_path, capsys):
    config = write_workflow(tmp_path, constraint_shots=0)
    assert main(["run", str(config)]) == EXIT_CONFIG_ERROR
    assert "constraint_shots" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_run_report_override(tmp_path):
    config = write_workflow(tmp_path)
    target = tmp_path / "elsewhere"
    target.mkdir()
    assert main(["run", str(config), "--report", str(target / "out.json")]) == EXIT_PASSED
    assert (target / "out.json").exists()
    assert not (tmp_path / "report.json").exists()


def test_run_report_path_resolves_relative_to_config(tmp_path):
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    config = write_workflow(config_dir, report_path="out/run1.json")
    (config_dir / "out").mkdir()
    assert main(["run", str(config)]) == EXIT_PASSED
    assert (config_dir / "out" / "run1.json").exists()


def test_run_circuit_from_file(tmp_path):
    (tmp_path / "bell.json").write_text(json.dumps(circuit_to_dict(phi_plus())))
    config = write_workflow(tmp_path, main_circuit="bell.json")
    assert main(["run", str(config)]) == EXIT_PASSED
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["main_circuit"]["num_qubits"] == 2


# --- run: determinism ------------------------------------------------------


def test_same_seed_reproduces_report(tmp_path):
    reports = []
    for name in ("a", "b"):
        directory = tmp_path / name
        directory.mkdir()
        config = write_workflow(directory)
        assert main(["run", str(config)]) == EXIT_PASSED
        reports.append(json.loads((directory / "report.json").read_text()))
    assert strip_timestamps(reports[0]) == strip_timestamps(reports[1])


def test_seed_override_changes_outcomes(tmp_path):
    evidence = []
    for name, seed in (("a", "41"), ("b", "42")):
        directory = tmp_path / name
        directory.mkdir()
        config = write_workflow(directory)
        assert main(["run", str(config), "--seed", seed]) == EXIT_PASSED
        report = json.loads((directory / "report.json").read_text())
        assert report["config"]["backend"]["seed"] == int(seed)
        evidence.append(report["introspection"]["evidence"]["counts"])
    assert evidence[0] != evidence[1]


def test_seed_override_beats_config_seed(tmp_path):
    dir_a = tmp_path / "a"
    dir_a.mkdir()
    dir_b = tmp_path / "b"
    dir_b.mkdir()
    config_a = write_workflow(dir_a)  # config seed 9
    config_b = write_workflow(dir_b, backend={"type": "simulator", "seed": 1234})
    assert main(["run", str(config_a), "--seed", "77"]) == EXIT_PASSED
    assert main(["run", str(config_b), "--seed", "77"]) == EXIT_PASSED
    report_a = json.loads((dir_a / "report.json").read_text())
    report_b = json.loads((dir_b / "report.json").read_text())
    assert (
        report_a["introspection"]["evidence"]["counts"]
        == report_b["introspection"]["evidence"]["counts"]
    )


def test_rejects_out_of_range_seed(tmp_path, capsys):
    config = write_workflow(tmp_path)
    assert main(["run", str(config), "--seed", "-1"]) == EXIT_CONFIG_ERROR
    assert "--seed" in capsys.readouterr().err
    assert main(["run", str(config), "--seed", str(2**64)]) == EXIT_CONFIG_ERROR


# --- run: replay backends --------------------------------------------------


def record_session(directory, runs):
    adapter = RecordingAdapter(SimulatorAdapter(NoiseModel.ideal(seed=11)))
    for circuit, shots in runs:
        adapter.run(circuit, shots)
    path = directory / "session.json"
    path.write_text(json.dumps(adapter.recording().to_dict()))
    return path, adapter.recording()


def test_run_replay_workflow(tmp_path):
    _, recording = record_session(
        tmp_path, [(packed_chsh_circuit(), 4000), (phi_plus(), 1000)]
    )
    config = write_workflow(
        tmp_path,
        backend={"type": "replay", "recording_file": "session.json", "strict": True},
    )
    assert main(["run", str(config)]) == EXIT_PASSED
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["branch"] == "passed"
    assert report["main_result"]["counts"] == recording.results[1].counts.to_dict()
    assert report["config"]["backend"] == {
        "type": "replay",
        "recording_file": "session.json",
        "strict": True,
    }


def test_run_parses_the_recording_once(tmp_path, monkeypatch):
    import qguard.backends

    record_session(tmp_path, [(packed_chsh_circuit(), 4000), (phi_plus(), 1000)])
    config = write_workflow(
        tmp_path,
        backend={"type": "replay", "recording_file": "session.json", "strict": True},
    )
    calls = []
    parse = qguard.backends.parse_recording

    def counting_parse(document):
        calls.append(document)
        return parse(document)

    monkeypatch.setattr(qguard.backends, "parse_recording", counting_parse)
    assert main(["run", str(config)]) == EXIT_PASSED
    assert len(calls) == 1


def test_run_exhausted_recording_is_a_runtime_error(tmp_path, capsys):
    record_session(tmp_path, [])  # calibration only, no results
    config = write_workflow(
        tmp_path,
        backend={"type": "replay", "recording_file": "session.json"},
    )
    assert main(["run", str(config)]) == EXIT_RUNTIME_ERROR
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_run_replay_strict_shot_mismatch(tmp_path, capsys):
    record_session(tmp_path, [(packed_chsh_circuit(), 4000), (phi_plus(), 1000)])
    config = write_workflow(
        tmp_path,
        backend={"type": "replay", "recording_file": "session.json", "strict": True},
        main_shots=999,  # recorded 1000
    )
    assert main(["run", str(config)]) == EXIT_RUNTIME_ERROR
    assert "error" in capsys.readouterr().err


def test_seed_flag_warns_on_replay(tmp_path, capsys):
    record_session(tmp_path, [(packed_chsh_circuit(), 4000), (phi_plus(), 1000)])
    config = write_workflow(
        tmp_path,
        backend={"type": "replay", "recording_file": "session.json"},
    )
    assert main(["run", str(config), "--seed", "5"]) == EXIT_PASSED
    assert "no effect" in capsys.readouterr().err


# --- entry point -----------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "qguard" in capsys.readouterr().out


def test_requires_a_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_module_invocation(tmp_path):
    config = write_workflow(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "qguard.cli", "run", str(config)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == EXIT_PASSED, result.stderr
    assert (tmp_path / "report.json").exists()
