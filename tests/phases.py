"""dmil.task_phases on a one-task stack, for tests that compare its phases
with phases built by hand: the task's sub-skill traces and routed outer
batches, which task_phases hands to its visitor, come back as values.  The
selector's trace and outer batch stay one-task stacks."""

from __future__ import annotations

from dmil.dmil import task_phases


def one_task_phases(params, groups, inner):
    """(trace_h, traces_l, batch_h, batches_l) of one task's groups."""
    visited = []
    trace_h, batch_h = task_phases(params, [groups], inner, lambda j, *phases: visited.append(phases))
    ((traces_l, batches_l),) = visited
    return trace_h, traces_l, batch_h, batches_l
