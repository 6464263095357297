"""The shared document readers, and a substitution fuzz test of every
document parser built on them."""

import copy
import json
import math

import pytest

from qguard import (
    DocumentError,
    QGuardError,
    calibration_from_dict,
    circuit_from_dict,
    constraint_from_dict,
    parse_calibration,
    parse_circuit,
    parse_recording,
    recording_from_dict,
)
from qguard.cli import load_workflow
from qguard.fields import choice, each, integer, number, record, string

# --- record, each, choice --------------------------------------------------


def test_record_reads_every_field_through_its_reader():
    readers = {"name": string, "size": integer, "scale": number}
    doc = {"name": "a", "size": 2, "scale": 1}
    assert record(doc, "x", readers, optional=("scale",)) == {"name": "a", "size": 2, "scale": 1.0}
    assert record({"name": "a", "size": 2}, "x", readers, optional=("scale",)) == {
        "name": "a",
        "size": 2,
    }


@pytest.mark.parametrize(
    "doc, path, message",
    [
        ([], "x", "expected an object"),
        ({"name": "a", "size": 2, "colour": 1}, "x", "unknown field"),
        ({"name": "a"}, "x.size", "required field missing"),
        ({"name": "a", "size": "2"}, "x.size", "expected an integer"),
    ],
    ids=["not_an_object", "unknown_key", "missing_key", "ill_typed_value"],
)
def test_record_names_the_path_of_what_is_wrong(doc, path, message):
    with pytest.raises(DocumentError, match=message) as excinfo:
        record(doc, "x", {"name": string, "size": integer})
    assert excinfo.value.path == path


def test_each_reads_every_item_at_its_index():
    assert each(integer)([1, 2], "q") == [1, 2]
    with pytest.raises(DocumentError) as excinfo:
        each(integer)([1, "2"], "q")
    assert excinfo.value.path == "q[1]"
    with pytest.raises(DocumentError, match="expected a list"):
        each(integer)({"0": 1}, "q")


@pytest.mark.parametrize("value", ["c", ["a"], {"a": 1}, None, 1])
def test_choice_rejects_anything_but_a_named_option(value):
    with pytest.raises(DocumentError, match=r"expected one of \['a', 'b'\]") as excinfo:
        choice({"a": 1, "b": 2})(value, "kind")
    assert excinfo.value.path == "kind"


def test_choice_returns_the_named_option():
    assert choice({"a": 1, "b": 2})("b", "kind") == 2


# --- substitution fuzz -----------------------------------------------------
#
# Every node of a valid document is replaced in turn by each value below.
# Whatever a parser makes of the result, only a QGuardError may escape it.

SUBSTITUTES = [
    None, True, 0, -1, 2.5, 10**400, math.nan, math.inf, -math.inf,
    "", "x", [], [1], {}, {"a": 1},
]

CALIBRATION = {
    "taken_at": "2026-08-21T12:00:00Z",
    "num_qubits": 2,
    "qubits": [
        {"t1_us": 100.0, "t2_us": 80.0, "readout_error": 0.01},
        {"t1_us": 120.0, "t2_us": 100.0, "readout_error": 0.02},
    ],
    "gates": [{"name": "cnot", "qubits": [0, 1], "error": 0.01}],
    "coupling_map": [[0, 1]],
}

RECORDING = {
    "calibration": CALIBRATION,
    "results": [
        {
            "counts": {"00": 3, "11": 1},
            "shots": 4,
            "backend_name": "simulator",
            "submitted_at": "2026-08-21T12:00:00Z",
            "completed_at": "2026-08-21T12:00:01Z",
            "metadata": {"run_index": "0"},
        }
    ],
}

CIRCUIT = {
    "num_qubits": 2,
    "gates": [{"kind": "H", "targets": [0]}, {"kind": "RY", "targets": [1], "angle": 0.5}],
    "measure": [0, 1],
}

CONSTRAINT = {
    "type": "or",
    "children": [
        {
            "type": "and",
            "children": [
                {"type": "calibration", "criteria": {"min_qubits": 2, "max_readout_error": 0.1}},
                {
                    "type": "fresh_within",
                    "ttl_seconds": 60,
                    "children": [
                        {
                            "type": "not",
                            "children": [
                                {"type": "packed_chsh", "policy": {"kind": "min", "threshold": 2}}
                            ],
                        }
                    ],
                },
            ],
        }
    ],
}


def workflow(backend):
    return {
        "backend": backend,
        "constraint": {"type": "packed_chsh", "policy": {"kind": "max", "threshold": 2.5}},
        "main_circuit": CIRCUIT,
        "constraint_shots": 100,
        "main_shots": 10,
        "report_path": "report.json",
    }


SIMULATOR_WORKFLOW = workflow(
    {"type": "simulator", "noise": {"p1": 0.0, "p2": 0.01, "readout_flip": 0.0}, "seed": 3}
)
REPLAY_WORKFLOW = workflow({"type": "replay", "recording_file": "session.json", "strict": True})


def nodes(doc, path=()):
    """The path of every node of ``doc``, the root included."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from nodes(value, path + (i,))


def substitutions(doc):
    for path in nodes(doc):
        for value in SUBSTITUTES:
            if not path:
                yield path, value, copy.deepcopy(value)
                continue
            changed = copy.deepcopy(doc)
            target = changed
            for step in path[:-1]:
                target = target[step]
            target[path[-1]] = copy.deepcopy(value)
            yield path, value, changed


def escapes(parse, doc):
    """Every substitution whose parse raised something other than a QGuardError."""
    found = []
    for path, value, changed in substitutions(doc):
        try:
            parse(changed)
        except QGuardError:
            pass
        except Exception as exc:  # noqa: BLE001 - the point is to catch anything
            found.append(f"{path} = {value!r}: {type(exc).__name__}: {exc}")
    return found


@pytest.mark.parametrize(
    "parse, doc",
    [
        (calibration_from_dict, CALIBRATION),
        (recording_from_dict, RECORDING),
        (circuit_from_dict, CIRCUIT),
        (constraint_from_dict, CONSTRAINT),
    ],
    ids=["calibration", "recording", "circuit", "constraint"],
)
def test_parsers_raise_only_typed_errors(parse, doc):
    parse(copy.deepcopy(doc))  # the unchanged document is valid
    assert escapes(parse, doc) == []


@pytest.mark.parametrize("document", [{}, None, 5], ids=["mapping", "none", "int"])
@pytest.mark.parametrize(
    "parse", [parse_calibration, parse_recording, parse_circuit], ids=["calibration", "recording", "circuit"]
)
def test_parsers_reject_a_document_that_is_not_text(parse, document):
    # parse_circuit raised a bare TypeError for each; the other two parsed a
    # mapping as if decoded, so there were two entry points for one document.
    with pytest.raises(DocumentError, match="^expected JSON text, got "):
        parse(document)


@pytest.mark.parametrize(
    "doc", [SIMULATOR_WORKFLOW, REPLAY_WORKFLOW], ids=["simulator", "replay"]
)
def test_load_workflow_returns_diagnostics_for_every_substitution(tmp_path, doc):
    (tmp_path / "session.json").write_text(json.dumps(RECORDING))
    assert load_workflow(copy.deepcopy(doc), tmp_path)[1] == []

    def load(changed):
        built, diagnostics = load_workflow(changed, tmp_path)
        assert (built is None) == bool(diagnostics)
        assert all(isinstance(d, DocumentError) for d in diagnostics)

    assert escapes(load, doc) == []
