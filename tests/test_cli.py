import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone

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
    load_workflow,
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


def strip_timestamps(node, also=()):
    """``node`` with the value of every ``*_at`` key, and of every key in
    ``also``, replaced by a placeholder."""
    if isinstance(node, dict):
        return {
            key: ("<ts>" if key.endswith("_at") or key in also else strip_timestamps(value, also))
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [strip_timestamps(value, also) for value in node]
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


def test_a_noise_field_left_out_is_zero_in_code_as_in_a_workflow(tmp_path):
    # NoiseModel(p2=0.05) used to fill in p1 = 0.001 and readout_flip = 0.02,
    # while a workflow's {"p2": 0.05} loaded with both at 0.
    doc = workflow_doc(backend={"type": "simulator", "noise": {"p2": 0.05}})
    workflow, diagnostics = load_workflow(doc, tmp_path)
    assert diagnostics == []
    assert workflow.backend["noise"] == {"p1": 0.0, "p2": 0.05, "readout_flip": 0.0}
    # One seed, one noise model: the same counts.
    circuit = packed_chsh_circuit()
    coded = SimulatorAdapter(NoiseModel(p2=0.05))
    assert workflow.adapter.run(circuit, 2000).counts == coded.run(circuit, 2000).counts
    assert NoiseModel() == NoiseModel.ideal()


def test_a_built_workflow_carries_its_report_path_and_constraint_document(tmp_path):
    doc = workflow_doc(report_path="out.json")
    workflow = load_workflow(doc, tmp_path)[0]
    assert workflow.report_path == "out.json"
    assert workflow.constraint_doc == doc["constraint"]
    del doc["report_path"]
    assert load_workflow(doc, tmp_path)[0].report_path == "report.json"


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


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "write, message",
    [
        (lambda path: None, "cannot read: "),
        (lambda path: path.mkdir(), "cannot read: "),
        (lambda path: path.write_text("{not json"), "invalid JSON: "),
        (lambda path: path.write_bytes(b"\xff{"), "cannot read: "),
    ],
    ids=["missing", "directory", "invalid_json", "not_utf8"],
)
def test_an_unreadable_config_is_one_line_naming_the_file(tmp_path, capsys, command, write, message):
    # Both commands read the file through one reader.  run said "error:
    # cannot read P: E" where validate said "P: cannot read: E", and a file
    # that was not UTF-8 escaped both as a UnicodeDecodeError traceback.
    path = tmp_path / "workflow.json"
    write(path)
    assert main([command, str(path)]) == EXIT_CONFIG_ERROR
    out, err = capsys.readouterr()
    shown, silent = (err, out) if command == "run" else (out, err)
    prefix = "error: " if command == "run" else ""
    assert silent == ""
    assert shown.startswith(f"{prefix}{path}: {message}")
    assert len(shown.splitlines()) == 1
    # An OSError's own message repeated the path.
    assert shown.count(str(path)) == 1


UNREADABLE = pytest.mark.parametrize(
    "write",
    [lambda path: None, lambda path: path.mkdir(), lambda path: path.write_bytes(b"\xff{")],
    ids=["missing", "directory", "not_utf8"],
)


@UNREADABLE
def test_an_unreadable_recording_file_is_one_line_naming_the_field(tmp_path, capsys, write):
    # A missing recording showed its path twice, and an OSError's message a
    # third time.
    write(tmp_path / "session.json")
    config = write_workflow(tmp_path, backend={"type": "replay", "recording_file": "session.json"})
    assert main(["validate", str(config)]) == EXIT_CONFIG_ERROR
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("backend.recording_file: cannot read ")
    assert len(out.splitlines()) == 1
    assert out.count("session.json") == 1


@UNREADABLE
@pytest.mark.parametrize(
    "field, overrides",
    [
        ("backend.calibration_file", {"backend": {"type": "simulator", "calibration_file": "doc.json"}}),
        ("main_circuit", {"main_circuit": "doc.json"}),
    ],
    ids=["calibration_file", "main_circuit"],
)
def test_an_unreadable_referenced_file_is_one_line_naming_the_field(tmp_path, capsys, field, overrides, write):
    write(tmp_path / "doc.json")
    assert main(["validate", str(write_workflow(tmp_path, **overrides))]) == EXIT_CONFIG_ERROR
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(f"{field}: cannot read ")
    assert len(out.splitlines()) == 1
    assert out.count("doc.json") == 1


def test_run_reports_a_report_it_cannot_write(tmp_path, capsys):
    config = write_workflow(tmp_path, report_path="no_such_directory/report.json")
    assert main(["run", str(config)]) == EXIT_RUNTIME_ERROR
    assert "cannot write report" in capsys.readouterr().err


def test_run_judges_the_snapshot_of_a_calibration_file(tmp_path):
    # Every qubit has T1 = 40 us; the synthetic snapshot has 120 us.
    taken_at = datetime(2026, 1, 1, tzinfo=timezone.utc)
    snapshot = synthetic_calibration_for(NoiseModel.ideal(), num_qubits=2, taken_at=taken_at)
    weak = [{"t1_us": 40.0, "t2_us": 30.0, "readout_error": 0.0}] * 2
    (tmp_path / "cal.json").write_text(json.dumps({**calibration_to_dict(snapshot), "qubits": weak}))
    backend = {"type": "simulator", "calibration_file": "cal.json"}
    constraint = {"type": "calibration", "criteria": {"min_t1_us": 100}}
    config = write_workflow(tmp_path, backend=backend, constraint=constraint)
    assert main(["run", str(config)]) == EXIT_FAILED
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["backend"]["calibration_file"] == "cal.json"
    assert report["introspection"]["scores"] == {"worst_t1_us": 40.0}


def test_run_judges_the_age_of_a_calibration_file_by_its_own_taken_at(tmp_path):
    # The simulator used to restamp the file's snapshot with its own clock,
    # so a snapshot from 2020 was judged 0 s old and passed max_age_s.
    taken_at = datetime(2020, 1, 1, tzinfo=timezone.utc)
    snapshot = synthetic_calibration_for(NoiseModel.ideal(), taken_at=taken_at)
    (tmp_path / "cal.json").write_text(json.dumps(calibration_to_dict(snapshot)))
    backend = {"type": "simulator", "calibration_file": "cal.json"}
    constraint = {"type": "calibration", "criteria": {"min_qubits": 8, "max_age_s": 3600}}
    config = write_workflow(tmp_path, backend=backend, constraint=constraint)
    assert main(["run", str(config)]) == EXIT_FAILED
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["introspection"]["scores"]["calibration_age_s"] > 6 * 365 * 86400


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
    # A max_age_s score is the synthetic snapshot's age on the wall clock, so
    # it differs between runs by microseconds and is masked with the timestamps.
    aged = {
        "type": "and",
        "children": [
            {"type": "calibration", "criteria": {"max_age_s": 60}},
            workflow_doc()["constraint"],
        ],
    }
    for case, constraint in (("probe", workflow_doc()["constraint"]), ("aged", aged)):
        reports = []
        for name in ("a", "b"):
            directory = tmp_path / case / name
            directory.mkdir(parents=True)
            config = write_workflow(directory, constraint=constraint)
            assert main(["run", str(config)]) == EXIT_PASSED
            reports.append(json.loads((directory / "report.json").read_text()))
        masked = [strip_timestamps(report, also={"calibration_age_s"}) for report in reports]
        assert masked[0] == masked[1]


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


def test_run_replay_without_strict_rejects_a_recording_of_other_shots(tmp_path, capsys):
    # With no strict field the replay took the pass branch, and its report
    # held the 100-shot probe and 50-shot main result as answers to requests
    # for 10 000 and 4096 shots.
    record_session(tmp_path, [(packed_chsh_circuit(), 100), (phi_plus(), 50)])
    config = write_workflow(
        tmp_path,
        backend={"type": "replay", "recording_file": "session.json"},
        constraint_shots=10_000,
        main_shots=4096,
    )
    assert main(["run", str(config)]) == EXIT_RUNTIME_ERROR
    assert "recorded shots 100 != requested shots 10000" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_validate_rejects_strict_false(tmp_path, capsys):
    # "strict": false made a replay return results without checking them.
    record_session(tmp_path, [(packed_chsh_circuit(), 4000), (phi_plus(), 1000)])
    config = write_workflow(
        tmp_path,
        backend={"type": "replay", "recording_file": "session.json", "strict": False},
    )
    assert main(["validate", str(config)]) == EXIT_CONFIG_ERROR
    out = capsys.readouterr().out
    assert "backend.strict: expected true, got False: every replay checks its results" in out


def test_a_replay_report_records_the_backend_as_given(tmp_path):
    # Without a strict field the report read "strict": false, a mode that
    # no longer exists.
    record_session(tmp_path, [(packed_chsh_circuit(), 4000), (phi_plus(), 1000)])
    backend = {"type": "replay", "recording_file": "session.json"}
    assert main(["run", str(write_workflow(tmp_path, backend=backend))]) == EXIT_PASSED
    assert json.loads((tmp_path / "report.json").read_text())["config"]["backend"] == backend


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


def test_calls_in_one_process_share_one_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "qguard":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    config = write_workflow(tmp_path)
    for argv in (["validate", str(config)], ["run", str(config)], ["run", str(config)]):
        assert main(argv) == EXIT_PASSED
    assert len(built) <= 1


def test_options_of_one_call_do_not_reach_the_next(tmp_path):
    config = write_workflow(tmp_path)
    assert main(["run", str(config), "--report", "first.json", "--seed", "5"]) == EXIT_PASSED
    assert main(["run", str(config)]) == EXIT_PASSED
    first = json.loads((tmp_path / "first.json").read_text())
    second = json.loads((tmp_path / "report.json").read_text())
    assert first["config"]["backend"]["seed"] == 5
    assert second["config"]["backend"]["seed"] == 9
    assert second["config"]["report_path"] == "report.json"


@pytest.mark.parametrize(
    "argv, status",
    [(["--version"], 0), (["run"], 2), (["bogus"], 2)],
    ids=["version", "no_config", "unknown_command"],
)
def test_an_exiting_call_leaves_the_next_calls_working(tmp_path, capsys, argv, status):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == status
    config = write_workflow(tmp_path)
    assert main(["run", str(config)]) == EXIT_PASSED
    assert main(["validate", str(config)]) == EXIT_PASSED
    assert (tmp_path / "report.json").exists()


def test_module_invocation(tmp_path):
    config = write_workflow(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "qguard.cli", "run", str(config)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == EXIT_PASSED, result.stderr
    assert (tmp_path / "report.json").exists()


# --- the report's text -----------------------------------------------------


def calibration_and_fresh_chsh(threshold):
    return {
        "type": "and",
        "children": [
            {"type": "calibration", "criteria": {"min_qubits": 8, "min_t1_us": 50.0}},
            {
                "type": "fresh_within",
                "ttl_seconds": 300,
                "children": [{"type": "packed_chsh", "policy": {"kind": "min", "threshold": threshold}}],
            },
        ],
    }


@pytest.mark.parametrize("backend", ["simulator", "replay"])
@pytest.mark.parametrize("threshold, status", [(2.2, EXIT_PASSED), (2.9, EXIT_FAILED)])
def test_every_report_is_its_document_as_json_dumps_writes_it(tmp_path, backend, threshold, status):
    overrides = {"constraint": calibration_and_fresh_chsh(threshold)}
    if backend == "replay":
        record_session(tmp_path, [(packed_chsh_circuit(), 4000), (phi_plus(), 1000)])
        overrides["backend"] = {"type": "replay", "recording_file": "session.json", "strict": True}
    assert main(["run", str(write_workflow(tmp_path, **overrides))]) == status
    text = (tmp_path / "report.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    assert ("main_result" in json.loads(text)) == (status == EXIT_PASSED)
