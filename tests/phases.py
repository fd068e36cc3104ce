"""dmil.task_phases on a one-task stack, for tests that compare its phases
with phases built by hand: per_task returns the task's sub-skill traces and
routed outer batches as its result.  The selector's trace and outer batch
stay one-task stacks."""

from __future__ import annotations

from dmil.dmil import task_phases


def one_task_phases(params, groups, inner):
    """(trace_h, traces_l, batch_h, batches_l) of one task's groups."""
    trace_h, batch_h, ((traces_l, batches_l),) = task_phases(params, [groups], inner, lambda *phases: phases)
    return trace_h, traces_l, batch_h, batches_l
