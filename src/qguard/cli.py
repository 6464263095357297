"""Command-line front end for declarative conditional workflows.

A workflow file names a backend, a constraint tree, a main circuit, and
shot counts.  Both commands load it the same way: every object a run would
use (the noise model with its calibration, or the replay recording; the
constraint tree; the main circuit) is built once, and whatever fails to
build is reported with its document path.  ``validate`` stops there and
executes nothing; ``run`` executes the built objects through the
conditional executor and writes a JSON report.  Exit statuses: 0 constraint
passed, 3 constraint failed, 1 configuration error, 2 runtime/backend error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from . import __version__
from .backends import BackendAdapter, ExperimentResult, ReplayAdapter, SimulatorAdapter
from .calibration import parse_calibration, synthetic_calibration_for
from .circuits import Circuit, circuit_from_dict, circuit_to_dict
from .constraints import ResourceConstraint, constraint_from_dict
from .errors import DocumentError, NoiseModelError, QGuardError
from .executor import Branch, run_conditionally
from .fields import boolean, choice, decode, integer, no_unknown, number, record, required, string
from .simulator import NoiseModel
from .timestamps import format_timestamp

EXIT_PASSED = 0
EXIT_CONFIG_ERROR = 1
EXIT_RUNTIME_ERROR = 2
EXIT_FAILED = 3

_NOISE_FIELDS = dict.fromkeys(("p1", "p2", "readout_flip"), number)
_BACKEND_FIELDS = {
    "simulator": {
        "type": string,
        "noise": lambda value, path: record(value, path, _NOISE_FIELDS, optional=_NOISE_FIELDS),
        "seed": integer,
        "calibration_file": string,
    },
    "replay": {"type": string, "recording_file": string, "strict": boolean},
}


@dataclass(frozen=True)
class Workflow:
    """The objects a workflow document describes, built and checked."""

    adapter: BackendAdapter
    backend: dict[str, Any]  # the backend as the report records it
    constraint: ResourceConstraint
    main_circuit: Circuit
    constraint_shots: int
    main_shots: int


def _referenced(base_dir: Path, name: str, path: str, load: Callable[[Path], Any]) -> Any:
    """``load`` applied to the file named by the workflow field at ``path``."""
    file = base_dir / name
    try:
        return load(file)
    except OSError as exc:
        raise DocumentError(path, f"cannot read {file}: {exc}") from None
    except (QGuardError, ValueError) as exc:
        raise DocumentError(path, f"{file}: {exc}") from None


def _load_backend(
    backend: Any, base_dir: Path, seed_override: int | None
) -> tuple[BackendAdapter, dict[str, Any]]:
    readers = required(backend, "type", "backend", choice(_BACKEND_FIELDS))
    fields = record(
        backend, "backend", readers, optional=("noise", "seed", "calibration_file", "strict")
    )
    if fields["type"] == "replay":
        resolved = {"strict": False, **fields}
        adapter = _referenced(
            base_dir,
            fields["recording_file"],
            "backend.recording_file",
            lambda file: ReplayAdapter.from_file(file, strict=resolved["strict"]),
        )
        return adapter, resolved

    noise = NoiseModel(
        **{**dict.fromkeys(_NOISE_FIELDS, 0.0), **fields.get("noise", {})},
        seed=fields.get("seed", 0),
    )
    if seed_override is not None:
        noise = noise.with_seed(seed_override)
    resolved = {
        "type": "simulator",
        "noise": {key: getattr(noise, key) for key in _NOISE_FIELDS},
        "seed": noise.seed,
    }
    if "calibration_file" not in fields:
        return SimulatorAdapter(noise, synthetic_calibration_for(noise)), resolved
    calibration = _referenced(
        base_dir,
        fields["calibration_file"],
        "backend.calibration_file",
        lambda file: parse_calibration(file.read_text()),
    )
    resolved["calibration_file"] = fields["calibration_file"]
    return SimulatorAdapter(noise, calibration), resolved


def _load_main_circuit(main: Any, base_dir: Path) -> Circuit:
    if isinstance(main, str):
        return _referenced(
            base_dir, main, "main_circuit", lambda file: circuit_from_dict(decode(file.read_text()))
        )
    return circuit_from_dict(main, "main_circuit")


def _shots(value: Any, path: str) -> int:
    shots = integer(value, path)
    if shots < 1:
        raise DocumentError(path, f"expected a positive integer, got {shots!r}")
    return shots


def load_workflow(
    doc: Any, base_dir: Path, seed_override: int | None = None
) -> tuple[Workflow | None, list[DocumentError]]:
    """Build every object a workflow document describes, executing nothing.

    Referenced files are resolved against ``base_dir`` and each is read and
    parsed once.  The sections (top-level fields, backend, constraint, main
    circuit, shot counts, report path) are built independently, and each
    one that fails adds its diagnostics.  Returns the workflow and no
    diagnostics, or ``None`` and at least one diagnostic.
    """
    if not isinstance(doc, Mapping):
        return None, [DocumentError("", f"expected a configuration object, got {type(doc).__name__}")]
    diagnostics: list[DocumentError] = []

    def build(load: Callable[..., Any], *args) -> Any:
        try:
            return load(*args)
        except DocumentError as exc:
            diagnostics.append(exc)
        except NoiseModelError as exc:
            diagnostics.extend(
                DocumentError("backend.seed" if name == "seed" else f"backend.noise.{name}", problem)
                for name, problem in exc.problems.items()
            )
        return None

    sections = {
        "backend": lambda value, path: _load_backend(value, base_dir, seed_override),
        "constraint": constraint_from_dict,
        "main_circuit": lambda value, path: _load_main_circuit(value, base_dir),
        "constraint_shots": _shots,
        "main_shots": _shots,
        "report_path": string,
    }
    build(no_unknown, doc, sections, "")
    built = {
        key: build(required, doc, key, "", read)
        for key, read in sections.items()
        if key in doc or key != "report_path"  # the one section that may be left out
    }
    if diagnostics:
        return None, diagnostics
    adapter, resolved_backend = built.pop("backend")
    built.pop("report_path", None)
    return Workflow(adapter, resolved_backend, **built), []


def validate_workflow(doc: Any, base_dir: Path) -> list[DocumentError]:
    """The diagnostics of :func:`load_workflow`; an empty list means the
    workflow is runnable."""
    return load_workflow(doc, base_dir)[1]


def run_workflow(
    config_path: str | Path,
    report_override: str | None = None,
    seed_override: int | None = None,
) -> int:
    """Execute a workflow file end to end; returns the process exit status."""
    config_path = Path(config_path)
    base_dir = config_path.parent
    try:
        doc = decode(config_path.read_text())
    except OSError as exc:
        print(f"error: cannot read {config_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except DocumentError as exc:
        print(f"error: {config_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    workflow, diagnostics = load_workflow(doc, base_dir, seed_override)
    if diagnostics:
        for diagnostic in diagnostics:
            print(f"error: {diagnostic}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if seed_override is not None and workflow.backend["type"] == "replay":
        print("warning: --seed has no effect on replay backends", file=sys.stderr)

    def on_pass(backend: BackendAdapter, introspection) -> ExperimentResult:
        return backend.run(workflow.main_circuit, workflow.main_shots)

    def on_fail(backend: BackendAdapter, introspection):
        print(
            f"constraint {introspection.constraint_name!r} failed; skipping main circuit",
            file=sys.stderr,
        )
        return None

    try:
        outcome = run_conditionally(
            workflow.adapter,
            workflow.constraint,
            on_pass=on_pass,
            on_fail=on_fail,
            shots=workflow.constraint_shots,
        )
    except QGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR

    report_path = report_override or doc.get("report_path", "report.json")
    report = {
        "branch": outcome.branch.value,
        "introspection": outcome.introspection.to_dict(),
        "config": {
            "backend": workflow.backend,
            "constraint": doc["constraint"],
            "main_circuit": circuit_to_dict(workflow.main_circuit),
            "constraint_shots": workflow.constraint_shots,
            "main_shots": workflow.main_shots,
            "report_path": str(report_path),
        },
        "started_at": format_timestamp(outcome.started_at),
        "finished_at": format_timestamp(outcome.finished_at),
        "version": __version__,
    }
    if outcome.main_result is not None:
        report["main_result"] = outcome.main_result.to_dict()

    try:
        (base_dir / report_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    except (OSError, TypeError) as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR

    return EXIT_PASSED if outcome.branch is Branch.PASSED else EXIT_FAILED


def _cmd_validate(config_path: str) -> int:
    path = Path(config_path)
    try:
        doc = decode(path.read_text())
    except OSError as exc:
        print(f"{path}: cannot read: {exc}")
        return EXIT_CONFIG_ERROR
    except DocumentError as exc:
        print(f"{path}: {exc}")
        return EXIT_CONFIG_ERROR
    diagnostics = validate_workflow(doc, path.parent)
    for diagnostic in diagnostics:
        print(diagnostic)
    return EXIT_CONFIG_ERROR if diagnostics else EXIT_PASSED


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qguard",
        description="Run or validate conditional quantum workflow files.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="execute a workflow and write a report")
    run_parser.add_argument("config", help="workflow configuration file (JSON)")
    run_parser.add_argument("--report", help="override the report output path")
    run_parser.add_argument(
        "--seed", type=int, help="override the simulator seed (unsigned 64-bit)"
    )

    validate_parser = subparsers.add_parser(
        "validate", help="check a workflow file without executing it"
    )
    validate_parser.add_argument("config", help="workflow configuration file (JSON)")

    args = parser.parse_args(argv)
    if args.command == "run":
        if args.seed is not None and not 0 <= args.seed < 2**64:
            print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        return run_workflow(args.config, report_override=args.report, seed_override=args.seed)
    return _cmd_validate(args.config)


if __name__ == "__main__":
    sys.exit(main())
