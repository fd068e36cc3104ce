"""Tests of the benchmark itself: every output check passes on correct
output and rejects a deliberately corrupted copy, and the span arithmetic
behind the metrics holds on hand-made spans.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np

import checks
import run
from checks import CheckFailed
from dmil import autodiff
from dmil import dmil as core
from dmil import evaluation, runner
from dmil.config import resolve_config
from dmil.data import Trajectory
from dmil.tasks import TaskDataset, make_dataset, sample_task
from tracing import Tracer

HORIZON = 60


def small_dataset(task_seed=9000) -> TaskDataset:
    return make_dataset(sample_task(task_seed), 4, 2, HORIZON, seed=7)


def with_first_trajectory(ds: TaskDataset, **changes) -> TaskDataset:
    t = ds.support[0]
    fields = {"states": t.states.copy(), "actions": t.actions.copy(), "true_skills": t.true_skills.copy()}
    for name, edit in changes.items():
        edit(fields[name])
    return TaskDataset((Trajectory(**fields),) + ds.support[1:], ds.query, ds.spec)


class DataReplay(unittest.TestCase):
    def test_generated_data_passes(self):
        self.assertEqual(checks.check_datasets([small_dataset(), small_dataset(9001)], HORIZON), 12)

    def test_rejects_perturbed_action(self):
        def nudge(a):  # an unclipped action, so the change reaches the dynamics
            i = np.flatnonzero(np.abs(a[:-1]).ravel() < 0.9)[0]
            a.ravel()[i] += 1e-3

        bad = with_first_trajectory(small_dataset(), actions=nudge)
        with self.assertRaisesRegex(CheckFailed, "positions"):
            checks.check_datasets([bad], HORIZON)

    def test_rejects_wrong_regime_label(self):
        bad = with_first_trajectory(small_dataset(), true_skills=lambda z: z.__setitem__(3, (z[3] + 1) % 3))
        with self.assertRaisesRegex(CheckFailed, "true_skills"):
            checks.check_datasets([bad], HORIZON)

    def test_rejects_skipped_waypoint(self):
        ds = small_dataset()
        last = np.asarray(ds.spec.waypoints[-1])
        bad = with_first_trajectory(ds, states=lambda s: s.__setitem__((0, slice(2, 4)), last))
        with self.assertRaisesRegex(CheckFailed, "waypoint schedule"):
            checks.check_datasets([bad], HORIZON)

    def test_rejects_truncated_trajectory(self):
        with self.assertRaisesRegex(CheckFailed, "shapes"):
            checks.check_datasets([small_dataset()], HORIZON + 1)


class SlowExpert(evaluation.ExpertPolicy):
    def act(self, state):
        a, z = super().act(state)
        return 0.2 * a, z


class ExpertRollouts(unittest.TestCase):
    def rates(self, policy_type):
        spec = sample_task(9000)
        return [evaluation.rollout_stats(policy_type(spec), spec, 2, 120).success_rate]

    def test_expert_passes(self):
        checks.check_expert_success(self.rates(evaluation.ExpertPolicy))

    def test_rejects_expert_that_misses_waypoints(self):
        with self.assertRaises(CheckFailed):
            checks.check_expert_success(self.rates(SlowExpert))


class MetaGradients(unittest.TestCase):
    CFG = resolve_config({"gradcheck": {"instances": 1, "inner_steps": [2]}})

    def test_exact_meta_gradient_passes(self):
        checks.check_gradcheck(runner.gradcheck_run(self.CFG), 1e-4)

    def test_rejects_first_order_meta_gradient(self):
        exact = core.meta_grad
        core.meta_grad = lambda trace, g, mode="exact": exact(trace, g, mode="first_order")
        try:
            report = runner.gradcheck_run(self.CFG)
        finally:
            core.meta_grad = exact
        with self.assertRaisesRegex(CheckFailed, "finite-difference"):
            checks.check_gradcheck(report, 1e-4)


class Adaptation(unittest.TestCase):
    def setUp(self):
        self.tasks = [small_dataset(9000), small_dataset(9001)]
        self.rows = [
            dict(method="dmil", shots=1, pre_mse=0.4, post_mse=0.2, skill_acc=0.9),
            dict(method="dmil", shots=1, pre_mse=0.3, post_mse=0.25, skill_acc=0.8),
            dict(method="dmil", shots=3, pre_mse=0.4, post_mse=0.9, skill_acc=0.1),
            dict(method="maml", shots=1, pre_mse=0.1, post_mse=0.9, skill_acc=None),
        ]

    def test_good_rows_pass(self):
        checks.check_adaptation(self.rows, self.tasks)

    def test_rejects_no_gain(self):
        self.rows[0]["post_mse"] = 0.8
        with self.assertRaisesRegex(CheckFailed, "did not lower"):
            checks.check_adaptation(self.rows, self.tasks)

    def test_rejects_constant_labeling(self):
        for row, task in zip(self.rows, self.tasks):
            truth = np.concatenate([t.true_skills for t in task.query])
            constant = np.full_like(truth, np.bincount(truth).argmax())
            row["skill_acc"] = evaluation.skill_accuracy(constant, truth, 3, 3)
        with self.assertRaisesRegex(CheckFailed, "majority"):
            checks.check_adaptation(self.rows, self.tasks)

    def test_rejects_missing_rows(self):
        with self.assertRaisesRegex(CheckFailed, "expected 2"):
            checks.check_adaptation(self.rows[1:], self.tasks)

    def test_counts_nonfinite_rows(self):
        self.rows[1]["post_mse"] = float("nan")
        self.assertEqual(checks.count_nonfinite(self.rows), 1)


class LossTrend(unittest.TestCase):
    def rows(self, losses):
        return [{"outer_loss": v} for v in losses]

    def test_falling_loss_passes(self):
        checks.check_loss_trend(self.rows(np.linspace(2.0, 1.0, 20)))

    def test_rejects_rising_loss(self):
        with self.assertRaisesRegex(CheckFailed, "did not fall"):
            checks.check_loss_trend(self.rows(np.linspace(1.0, 2.0, 20)))


class Digests(unittest.TestCase):
    def test_one_bit_in_the_data_changes_the_digest(self):
        ds = small_dataset()
        bit = lambda a: a.view(np.uint64).__setitem__((7, 1), a.view(np.uint64)[7, 1] ^ 1)  # noqa: E731
        self.assertNotEqual(checks.digest_datasets([ds]), checks.digest_datasets([with_first_trajectory(ds, actions=bit)]))

    def test_rejects_differing_rerun(self):
        first = {"datasets": "a", "metric_rows": "b", "params": "c"}
        checks.check_same_digests(first, dict(first), "round 2")
        with self.assertRaisesRegex(CheckFailed, "params"):
            checks.check_same_digests(first, dict(first, params="d"), "round 2")

    def test_parameters_digest_sees_one_ulp(self):
        from dmil.policies import init_hierarchical

        p = init_hierarchical(4, 2, 3, (8,), seed=1)
        res = runner.TrainResult(p, "dmil", (), 0, (), ())
        nudged = p.high.values.copy()
        nudged[0] = np.nextafter(nudged[0], 1.0)
        other = replace(res, params=p.with_updates(type(p.high)(nudged), p.skills))
        self.assertNotEqual(checks.digest_params([("dmil", res)]), checks.digest_params([("dmil", other)]))


class SpanArithmetic(unittest.TestCase):
    def test_stage_times_subtract_the_nested_warm_start(self):
        spans = [  # name, start, end, parent, kind
            ("runner.build_datasets", 0.0, 1.0, -1, (None, None)),
            ("runner.train", 1.0, 5.0, -1, (None, None)),
            ("runner.warm_start", 1.0, 2.5, 11, (None, None)),
            ("runner.evaluate", 5.0, 6.0, -1, (None, None)),
        ]
        t = run.stage_times(spans, first=10)
        self.assertEqual(t, {"setup_s": 1.0, "warm_start_s": 1.5, "train_s": 2.5, "eval_s": 1.0, "total_s": 6.0})

    def test_total_leaves_out_forced_collections(self):
        spans = [
            ("bench.gc_collect", 0.0, 0.5, -1, (None, None)),
            ("runner.ablate", 0.5, 10.5, -1, (None, None)),
            ("bench.gc_collect", 0.5, 0.75, 1, (None, None)),
            ("runner.train", 0.75, 10.5, 1, (None, None)),
        ]
        self.assertEqual(run.stage_times(spans, first=0)["total_s"], 9.75)

    def test_self_time_excludes_direct_children(self):
        tr = Tracer()
        tr.spans[:] = [
            ("a", 0.0, 10.0, -1, ("dmil", None)),
            ("b", 1.0, 4.0, 0, ("dmil", None)),
            ("c", 2.0, 3.0, 1, ("dmil", None)),
        ]
        table = tr.table()
        self.assertEqual([table[n]["self_s"] for n in "abc"], [7.0, 2.0, 1.0])

    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertEqual(run.percentile_ms([0.001] * 99, 90), 0.0)
        self.assertAlmostEqual(run.percentile_ms([0.001] * 100, 90), 1.0)
        self.assertAlmostEqual(run.percentile_ms([0.001, 0.003], 50), 2.0)
        self.assertEqual(run.percentile_ms([], 50), 0.0)

    def test_restore_puts_every_function_back(self):
        before = (runner.train, core.meta_grad, evaluation.mlp_forward, autodiff.Node.__init__)
        tr = Tracer()
        tr.install_stages()
        tr.install_layers()
        self.assertIsNot(runner.train, before[0])
        tr.restore()
        self.assertEqual((runner.train, core.meta_grad, evaluation.mlp_forward, autodiff.Node.__init__), before)


if __name__ == "__main__":
    unittest.main()
