"""Process-parallel scenario runner under :mod:`repro.scenario`.

The differential, chaos, recovery, overload and bench sweeps are matrices of
*independent* cells — every cell builds a fresh machine and a fresh
program, so there is no shared mutable state between them and the only
coupling is the order results are folded into the report.  That makes
them embarrassingly parallel: :func:`run_tasks` fans cells out over a
``ProcessPoolExecutor`` and collects results **in submission order**,
so the merged report is byte-identical at any job count.

Determinism argument (DESIGN.md §14):

* the work list is built *before* dispatch, in the exact order the
  sequential sweep would visit it (seed-stable partitioning — the
  partition is a function of the matrix, never of worker timing);
* each cell is a pure function of its arguments (fresh machine, fresh
  program, seeded injectors), so running it in another process changes
  nothing it computes;
* results are merged by walking the futures in submission order —
  completion order, worker count and scheduling jitter never reach the
  report.

Tasks must be picklable (the workload specs and machine factories are
partials and frozen-dataclass recipes rather than closures for exactly
this reason);
:func:`run_tasks` fails fast with a :class:`~repro.errors.ValidationError`
naming the offender instead of letting the pool raise an opaque error
mid-sweep.  A worker exception is re-raised in the parent at the same
matrix position where the sequential sweep would have raised it.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

from .errors import ValidationError

__all__ = ["run_tasks"]

#: A unit of work: ``(callable, args)`` — invoked as ``callable(*args)``.
Task = tuple[Callable[..., Any], Sequence[Any]]


def _invoke(task: Task) -> Any:
    fn, args = task
    return fn(*args)


def run_tasks(tasks: Iterable[Task], jobs: int = 1) -> list[Any]:
    """Run every task; return results in task order.

    ``jobs <= 1`` (or a single task) runs inline in this process — the
    parallel path is an optimization, never a behavior change.
    """
    work = list(tasks)
    if jobs <= 1 or len(work) <= 1:
        return [fn(*args) for fn, args in work]
    try:
        pickle.dumps(work)
    except Exception as exc:
        raise ValidationError(
            f"scenario cells are not picklable, cannot fan out with --jobs: {exc}"
        ) from exc
    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
        futures = [pool.submit(_invoke, task) for task in work]
        # submission order, not completion order: the merge is ordered
        return [future.result() for future in futures]
