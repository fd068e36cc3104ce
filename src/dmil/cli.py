"""Command-line experiment runner.

Subcommands: gen-data, train, eval, gradcheck, ablate.  Every run directory
receives the resolved config (config.json) and, when a config file was given,
a verbatim copy of it (config.input.json), so experiments are reconstructible
from artifacts alone.  Each command checks its config and builds or loads
its datasets (and eval and ablate check eval.shots against the test tasks:
runner.check_eval) before the run directory is made, so input it rejects
leaves no output.

Every command runs BLAS on one thread, pinned when the package is imported
(dmil.blas).

Exit codes: 0 success, 1 a flagged numeric failure (diverged inner
adaptations, a failed gradcheck), and one code per error class in
EXIT_CODES, each reported as a one-line message instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import logging
import shutil
import sys
from pathlib import Path

from .autodiff import ContractError, NumericError
from .checkpoint import CheckpointSchemaError, load_checkpoint
from .config import ConfigError, load_config, resolve_config, dump_config
from .evaluation import write_report_csv, write_summary_json
from .runner import ablate, build_datasets, build_split, check_eval, evaluate, gradcheck_run, init_model, train
from .tasks import DatasetFormatError, save_datasets

logger = logging.getLogger("dmil")


def _resolve(args) -> dict:
    if args.config:
        return load_config(args.config, seed=args.seed)
    return resolve_config(seed=args.seed)


def _prepare_out(args, cfg: dict) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(dump_config(cfg))
    if args.config:
        shutil.copyfile(args.config, out / "config.input.json")
    return out


def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    train_tasks, test_tasks = build_datasets(cfg)
    out = _prepare_out(args, cfg)
    save_datasets(out / "train.jsonl", train_tasks)
    save_datasets(out / "test.jsonl", test_tasks)
    logger.info("wrote %d train and %d test tasks to %s", len(train_tasks), len(test_tasks), out)
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    datasets = build_datasets(cfg)
    out = _prepare_out(args, cfg)
    result = train(cfg, out_dir=out, datasets=datasets)
    logger.info("trained %s for %d iterations; metrics in %s", result.method, len(result.metrics), out)
    if result.diverged_total:
        logger.error("%d inner adaptations were flagged as diverged", result.diverged_total)
        return 1
    return 0


def _check_model(cfg: dict, ckpt) -> None:
    """Reject a checkpoint whose model is not the config's (method, feature
    map, skill count, layer sizes of both networks), naming the first field
    that differs: the method decides which levels adapt at test time, and
    the feature map sets the input width of both networks."""
    params = ckpt.params
    want = init_model(cfg)
    for field, got, need in (
        ("method", ckpt.method, cfg["dmil"]["method"]),
        ("features", params.feature_kind, want.feature_kind),
        ("K", params.K, want.K),
        ("selector layers", params.high_shape.layer_sizes, want.high_shape.layer_sizes),
        ("sub-skill layers", params.skill_shape.layer_sizes, want.skill_shape.layer_sizes),
    ):
        if got != need:
            raise ContractError(f"checkpoint {field} {got!r} does not match the config's {need!r}")


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    ckpt = load_checkpoint(args.checkpoint)
    _check_model(cfg, ckpt)
    test_tasks = build_split(cfg, "test")
    check_eval(cfg, test_tasks)
    out = _prepare_out(args, cfg)
    rows = evaluate(cfg, ckpt.params, ckpt.method, test_tasks)
    write_report_csv(out / "report.csv", rows)
    write_summary_json(out / "summary.json", rows)
    logger.info("evaluated %s checkpoint on %d tasks", ckpt.method, len(test_tasks))
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(args, cfg)
    report = gradcheck_run(cfg)
    (out / "gradcheck.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    logger.info(
        "gradcheck: max rel err vs finite differences selector=%.3g sub-skills=%.3g (tolerance %.1g) "
        "over %d sub-skill objectives -> %s",
        report["max_rel_err_high"],
        report["max_rel_err_low"],
        report["tolerance"],
        report["skill_objectives_checked"],
        "PASS" if report["pass"] else "FAIL",
    )
    return 0 if report["pass"] else 1


def cmd_ablate(args) -> int:
    cfg = _resolve(args)
    datasets = build_datasets(cfg)
    check_eval(cfg, datasets[1])
    out = _prepare_out(args, cfg)
    rows = ablate(cfg, out_dir=out, datasets=datasets)
    logger.info("ablation table with %d rows in %s", len(rows), out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmil",
        description="Hierarchical meta imitation learning on a synthetic switching-controller benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, checkpoint: bool = False):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--out", type=str, required=True, help="run directory")
        if checkpoint:
            p.add_argument("--checkpoint", type=str, required=True, help="checkpoint JSON to evaluate")

    common(sub.add_parser("gen-data", help="generate benchmark dataset files"))
    common(sub.add_parser("train", help="train one method, write checkpoints and metrics"))
    common(sub.add_parser("eval", help="few-shot evaluation of a checkpoint"), checkpoint=True)
    common(sub.add_parser("gradcheck", help="check the meta-gradients against finite differences"))
    common(sub.add_parser("ablate", help="paired runs of every method on identical seeds"))
    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "ablate": cmd_ablate,
}


# Error class -> (exit code, message prefix).
EXIT_CODES = {
    ConfigError: (2, "config error"),
    ContractError: (3, "contract error"),
    NumericError: (4, "numeric error"),
    CheckpointSchemaError: (5, "checkpoint error"),
    DatasetFormatError: (6, "dataset format error"),
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except tuple(EXIT_CODES) as e:
        code, what = next(EXIT_CODES[c] for c in type(e).__mro__ if c in EXIT_CODES)
        logger.error("%s: %s", what, e)
        return code


if __name__ == "__main__":
    sys.exit(main())
