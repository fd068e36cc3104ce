"""Command-line experiment runner.

Subcommands: gen-data, train, eval, gradcheck, ablate.  Every run directory
receives the resolved config (config.json), the environment it ran in
(env.json: runner.environment) and, when a config file was given, a verbatim
copy of it (config.input.json), so experiments are reconstructible from
artifacts alone.  Before the run directory is made, each command checks
its config and builds or loads its datasets; eval and ablate check eval.shots
(runner.check_eval), and eval its checkpoint's method and model
(runner.check_model); so input it rejects leaves no output.  Every input
file (config, checkpoint, dataset) is read by data.read_json, and --out
must name an empty directory or a path that can become one (exit 2
otherwise), so no run's files mix with another's.

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
from .config import ConfigError, load_config, resolve_config
from .evaluation import write_report_csv, write_summary_json
from .runner import ablate, build_datasets, build_split, check_eval, check_model, evaluate, gradcheck_run, open_run_dir, train
from .tasks import DatasetFormatError, save_datasets

logger = logging.getLogger("dmil")


def _resolve(args) -> dict:
    if args.config:
        return load_config(args.config, seed=args.seed)
    return resolve_config(seed=args.seed)


def _prepare_out(args, cfg: dict) -> Path:
    out = open_run_dir(args.out, cfg)
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


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.method != cfg["dmil"]["method"]:
        raise ContractError(f"checkpoint method {ckpt.method!r} does not match the config's {cfg['dmil']['method']!r}")
    check_model(cfg, ckpt.params, "checkpoint")
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


# Subcommand -> (handler, help).
COMMANDS = {
    "gen-data": (cmd_gen_data, "generate benchmark dataset files"),
    "train": (cmd_train, "train one method, write checkpoints and metrics"),
    "eval": (cmd_eval, "few-shot evaluation of a checkpoint"),
    "gradcheck": (cmd_gradcheck, "check the meta-gradients against finite differences"),
    "ablate": (cmd_ablate, "paired runs of every method on identical seeds"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmil",
        description="Hierarchical meta imitation learning on a synthetic switching-controller benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--out", type=str, required=True, help="run directory")
        if name == "eval":
            p.add_argument("--checkpoint", type=str, required=True, help="checkpoint JSON to evaluate")
    return parser


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
        return COMMANDS[args.command][0](args)
    except tuple(EXIT_CODES) as e:
        code, what = next(EXIT_CODES[c] for c in type(e).__mro__ if c in EXIT_CODES)
        logger.error("%s: %s", what, e)
        return code


if __name__ == "__main__":
    sys.exit(main())
