"""The campaign script's config still resolves: a renamed config key or
method would otherwise surface only minutes into a 5-seed run."""

import copy
import importlib.util
from pathlib import Path

import pytest

from dmil.config import resolve_config

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pilot_campaign.py"
# The last iteration index the campaign's loss-trend criterion reads.
LAST_ITERATION_READ = 299


def load_campaign():
    spec = importlib.util.spec_from_file_location("pilot_campaign", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only as __main__
    return module


CAMPAIGN = load_campaign()


# The dmil section overrides of each run the campaign trains: every method,
# and dmil without the switch term (dmil_noaux).
RUNS = {m: {"method": m} for m in ["dmil", *CAMPAIGN.METHODS_5B]} | {"dmil_noaux": {"aux_weight": 0.0}}


@pytest.mark.parametrize("run", list(RUNS))
def test_pilot_campaign_config_resolves(run) -> None:
    overrides = copy.deepcopy(CAMPAIGN.CANDIDATE)
    overrides["dmil"].update(RUNS[run])
    cfg = resolve_config(overrides, seed=CAMPAIGN.SEEDS[0])
    assert {k: cfg["dmil"][k] for k in RUNS[run]} == RUNS[run]
    assert cfg["run"]["iterations"] > LAST_ITERATION_READ
    assert {1, 3} <= set(cfg["eval"]["shots"])  # the shots counts its criteria read
