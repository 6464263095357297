"""The conditional executor: evaluate a constraint, then dispatch exactly
one of two callbacks with the evidence in hand.

The flow is synchronous and minimal on purpose: the constraint is evaluated,
the branch is decided, and the chosen callback runs immediately, keeping the
window between introspection and use as small as the backend allows.  One
clock times the whole decision: it stamps both phases and every node of the
constraint tree, so that window is measurable on one time base.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Any, Callable

from .backends import BackendAdapter
from .constraints import IntrospectionResult, ResourceConstraint
from .errors import CallbackError, ConstraintError, IntrospectionError, check_aware, check_shots, check_type
from .timestamps import utc_now

Callback = Callable[[BackendAdapter, IntrospectionResult], Any]


class Branch(Enum):
    PASSED = "passed"
    FAILED = "failed"


@dataclass(frozen=True)
class ConditionalResult:
    """Complete record of one conditional execution.

    ``main_result`` is whatever the executed callback returned (None when it
    returned nothing); the executor never inspects it.
    """

    introspection: IntrospectionResult
    branch: Branch
    main_result: Any
    started_at: datetime
    finished_at: datetime


def run_conditionally(
    adapter: BackendAdapter,
    constraint: ResourceConstraint,
    on_pass: Callback,
    on_fail: Callback,
    shots: int,
    clock: Callable[[], datetime] = utc_now,
) -> ConditionalResult:
    """Evaluate ``constraint`` against ``adapter``; run ``on_pass`` if it
    passed, ``on_fail`` otherwise.

    ``shots`` feeds the constraint's evidence circuits; whatever the main
    computation does with the adapter (including its own shot count) is the
    callback's business.  The callback receives the same adapter and the
    introspection result that ends up in the returned record.  ``clock`` is
    the decision's clock: the constraint tree is evaluated against it.

    An ``adapter`` that is not a :class:`BackendAdapter`, a ``constraint``
    that is not a :class:`ResourceConstraint`, ``shots`` that are not a
    positive integer, or a ``clock`` that cannot be called raises
    :class:`ConstraintError` before anything runs, as does a first clock
    reading that is not a timezone-aware datetime.  If constraint evaluation
    raises, neither callback runs and the error surfaces as
    :class:`IntrospectionError`.  If the chosen callback raises, the error
    surfaces as :class:`CallbackError` carrying the branch and introspection
    result that were already decided.
    """
    check_type(adapter, BackendAdapter, "adapter", ConstraintError)
    shots = check_shots(shots, ConstraintError)
    check_type(constraint, ResourceConstraint, "constraint", ConstraintError)
    check_type(clock, Callable, "clock", ConstraintError)
    started_at = check_aware(clock(), "clock reading", ConstraintError)
    try:
        introspection = constraint.evaluate(adapter, shots, clock)
    except Exception as exc:
        raise IntrospectionError(
            f"constraint evaluation failed: {exc}",
            constraint_name=constraint.name(),
            started_at=started_at,
            failed_at=clock(),
        ) from exc
    branch = Branch.PASSED if introspection.passed else Branch.FAILED
    callback = on_pass if introspection.passed else on_fail
    try:
        main_result = callback(adapter, introspection)
    except Exception as exc:
        raise CallbackError(
            f"{branch.value} callback failed: {exc}",
            branch=branch,
            introspection=introspection,
            started_at=started_at,
            failed_at=clock(),
        ) from exc
    return ConditionalResult(
        introspection=introspection,
        branch=branch,
        main_result=main_result,
        started_at=started_at,
        finished_at=clock(),
    )
