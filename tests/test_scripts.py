"""The campaign script's config still resolves: a renamed config key or
method would otherwise surface only minutes into a 5-seed run.  Its
criteria are checked on hand-built rows."""

import importlib.util
from pathlib import Path

import pytest

from dmil.runner import Run

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pilot_campaign.py"


def load_campaign():
    spec = importlib.util.spec_from_file_location("pilot_campaign", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only as __main__
    return module


CAMPAIGN = load_campaign()


@pytest.mark.parametrize("run", list(CAMPAIGN.RUNS))
def test_pilot_campaign_config_resolves(run) -> None:
    overrides = CAMPAIGN.RUNS[run]
    cfg = CAMPAIGN.plan(CAMPAIGN.SEEDS[0])[run]
    assert {k: cfg["dmil"][k] for k in overrides} == overrides
    assert cfg["run"]["iterations"] > max(CAMPAIGN.LOSS_ITERATIONS)
    assert {1, 3} <= set(cfg["eval"]["shots"])  # the shots counts its criteria read


def hand_run(losses=(0.0, 0.0), **values) -> Run:
    """A run on two test tasks: values maps (key, shots) names such as
    post_mse_3 to the two tasks' values; losses are the outer losses at
    the pilot's LOSS_ITERATIONS, every other iteration's loss NaN."""
    rows = []
    for shots in (1, 3):
        for task in (0, 1):
            rows.append({"shots": shots} | {k.removesuffix(f"_{shots}"): v[task]
                                            for k, v in values.items() if k.endswith(f"_{shots}")})
    metrics = [{"outer_loss": float("nan")} for _ in range(max(CAMPAIGN.LOSS_ITERATIONS) + 1)]
    for i, loss in zip(CAMPAIGN.LOSS_ITERATIONS, losses, strict=True):
        metrics[i] = {"outer_loss": loss}
    return Run(rows, tuple(metrics), 0, 0.0)


def seed_runs(dmil: Run, others=(0.25, 0.125, 0.0625), noaux_switch=0.25) -> dict[str, Run]:
    """One seed's runs: dmil, each ablation with one 1-shot post MSE on
    both tasks, and dmil_noaux with one 1-shot switch rate."""
    runs = {"dmil": dmil}
    for m, post in zip(CAMPAIGN.METHODS_5B, others, strict=True):
        runs[m] = hand_run(post_mse_1=(post, post))
    runs["dmil_noaux"] = hand_run(switch_rate_1=(noaux_switch, noaux_switch))
    return runs


def test_pilot_criteria_on_hand_built_rows() -> None:
    # Seed 0 passes every per-seed criterion but 5b against em_only; seed 1
    # fails 5a, 5c, 7 and 8 and passes 5b against every method.
    good = seed_runs(hand_run(
        losses=(2.0, 1.5), pre_mse_1=(0.5, 0.25), post_mse_1=(0.125, 0.125), post_mse_3=(0.0625, 0.125),
        skill_acc_1=(1.0, 0.75), switch_rate_1=(0.25, 0.0)))
    bad = seed_runs(hand_run(
        losses=(1.0, 1.0), pre_mse_1=(0.25, 0.125), post_mse_1=(0.25, 0.0), post_mse_3=(0.25, 0.0625),
        skill_acc_1=(0.5, 0.5), switch_rate_1=(0.5, 0.25)), others=(0.5, 0.125, 0.25), noaux_switch=0.375)
    c = CAMPAIGN
    assert c.c5a(good) == (0.375, 0.125, True)
    assert c.c5a(bad) == (0.1875, 0.125, False)
    half = {"dmil": hand_run(pre_mse_1=(0.25, 0.25), post_mse_1=(0.125, 0.125))}
    assert c.c5a(half) == (0.25, 0.125, True)  # exactly half passes
    assert [c.c5b(good, m) for m in c.METHODS_5B] == [(0.125, 0.25, True), (0.125, 0.125, True), (0.125, 0.0625, False)]
    assert [c.c5b(bad, m) for m in c.METHODS_5B] == [(0.125, 0.5, True), (0.125, 0.125, True), (0.125, 0.25, True)]
    assert c.c5c(good) == (0.09375, 0.125, True)
    assert c.c5c(bad) == (0.15625, 0.125, False)
    assert c.c7(good) == (0.125, 0.25, True)
    assert c.c7(bad) == (0.375, 0.375, False)  # a tie is no lower
    assert c.c8(good) == (2.0, 1.5, True)
    assert c.c8(bad) == (1.0, 1.0, False)
    results = {0: good, 1: bad}
    assert c.c6(results) == (0.6875, False)
    assert c.c6({0: good}) == (0.875, True)
    assert c.verdict(results, 2, c.c5a) == (1, False)
    assert c.verdict(results, 1, c.c5a) == (1, True)
    assert [c.verdict(results, 2, c.c5b, m) for m in c.METHODS_5B] == [(2, True), (2, True), (1, False)]
    assert c.verdict(results, 1, c.c7) == (1, True)
