"""Command-line front end.

Subcommands mirror the pipeline stages:

* ``pretrain``          fair supernet pretraining; writes checkpoint + ledger
* ``search-path``       stage 1 table and choice
* ``search-operator``   stages 1-2
* ``shrink``            stages 1-3 (evolutionary channel search)
* ``run-all``           full pipeline including fine-tune, full report
* ``baseline-joint``    exhaustive joint search, the cost comparison, and the
                        staged genome's feasible percentile and optimality gap
* ``verify-fairness``   check a dumped ledger for the exact equalities
* ``enumerate``         specialization and search-space counting
* ``analyze-uniform``   equal-usage probability of uniform sampling

Exit codes: 0 success, 2 configuration error, 3 infeasible constraints,
4 violated invariant (including a failed fairness check).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .configs import CONFIG_KEYS, SECTIONS, config_value, default_config, section_values
from .errors import (
    CfSearchError,
    ConfigError,
    GenomeError,
    InfeasibleError,
    InvariantError,
    NonFiniteLossError,
    ShapeError,
)
from .evolution import EvoConfig
from .fairness import FairnessLedger, uniform_equal_probability
from .network import SupernetWeights
from .oracles import GanOracle
from .pipeline import (
    joint_search_baseline,
    prepare,
    run_pipeline,
    run_search,
    search_operators,
    search_path,
)
from .reporting import report_pipeline, write_run_report
from .space import (
    genome_space_size,
    maximal_genome,
    operator_specialization_count,
    spec_from_dict,
)
from .trainer import _validate_shapes, pretrain_supernet
from .util import as_rng, child_seed, format_float


def load_config(path: str | None = None, seed: int | None = None) -> dict:
    """The default config with a YAML file and a seed override merged in.

    Each flat value is checked against ``CONFIG_KEYS``, which refuses any
    key it does not list; ``spec_from_dict`` checks the space.
    """
    cfg = default_config()
    if path is not None:
        import yaml  # only a run with a config file pays for the import

        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must be a mapping at top level")
        for key, value in user.items():
            if key == "space":
                # A space is a unit: partial overrides of paths would splice
                # incompatible layer lists, so it replaces wholesale.
                cfg["space"] = value
            elif key in SECTIONS:
                cfg[key].update(section_values(key, value))
            elif key in CONFIG_KEYS and "." not in key:
                cfg[key] = config_value(key, value)
            else:
                raise ConfigError(f"unknown config key {key}")
    if seed is not None:
        cfg["seed"] = config_value("seed", seed)
    return cfg


def _prepared(cfg: dict, checkpoint: str | None = None):
    """(spec, dataset, weights, pretrain result): pretrain fresh or load a checkpoint.

    A checkpoint gets the shape check that pretraining makes first, so a
    space whose outputs do not fit the dataset exits 2 on either path.
    """
    spec, dataset, train_cfg = prepare(cfg)
    if checkpoint is not None:
        _validate_shapes(spec, dataset, train_cfg)
        return spec, dataset, SupernetWeights.load(spec, checkpoint), None
    result = pretrain_supernet(spec, dataset, train_cfg, child_seed(int(cfg["seed"]), "pretrain"))
    return spec, dataset, result.weights, result


@contextmanager
def _incomplete_report_on_failure(args, cfg: dict):
    """Make ``--out`` first; on a failed run, write a ``status: incomplete`` report there.

    A path that cannot be made a directory raises ``ConfigError`` naming
    it, before any training.
    """
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make report directory {args.out}: {exc}") from exc
    try:
        yield
    except CfSearchError:
        if args.out:
            write_run_report(args.out, cfg, int(cfg["seed"]), status="incomplete")
        raise


def cmd_pretrain(args) -> int:
    cfg = load_config(args.config, args.seed)
    with _incomplete_report_on_failure(args, cfg):
        _, _, _, result = _prepared(cfg)
    last = result.metrics[-1]
    print(f"epochs: {cfg['train']['epochs']}")
    print(f"final loss: {format_float(last['loss_total'])}")
    print(f"fair: {int(result.ledger.is_fair())}")
    if args.out:
        write_run_report(args.out, cfg, int(cfg["seed"]), pretrain=result)
        print(f"report: {args.out}")
    return 0


def cmd_search_path(args) -> int:
    cfg = load_config(args.config, args.seed)
    _, dataset, weights, _ = _prepared(cfg, args.checkpoint)
    oracle = GanOracle(weights, dataset)
    chosen, records = search_path(oracle)
    print("# label\tfitness")
    for rec in records:
        print(f"{rec.label}\t{format_float(rec.fitness)}")
    print(f"chosen path: {chosen}")
    return 0


def cmd_search_operator(args) -> int:
    cfg = load_config(args.config, args.seed)
    spec, dataset, weights, _ = _prepared(cfg, args.checkpoint)
    oracle = GanOracle(weights, dataset)
    chosen, _ = search_path(oracle)
    best_ops, records = search_operators(oracle, chosen)
    print("# genome\tfitness\tparams\tflops")
    for rec in records:
        print(f"{rec.label}\t{format_float(rec.fitness)}\t{rec.params}\t{rec.flops}")
    g_optr = replace(maximal_genome(spec, chosen), operator_assignment=best_ops)
    print(f"chosen operators: {g_optr.to_record()}")
    return 0


def cmd_shrink(args) -> int:
    cfg = load_config(args.config, args.seed)
    evo = EvoConfig.from_mapping(cfg["evolution"])
    with _incomplete_report_on_failure(args, cfg):
        _, dataset, weights, _ = _prepared(cfg, args.checkpoint)
        oracle = GanOracle(weights, dataset)
        genome, trace, shrink = run_search(
            oracle, evo, as_rng(child_seed(int(cfg["seed"]), "search"))
        )
    for stage in ("path", "operator", "channel"):
        print(f"{stage} calls: {trace.oracle_calls[stage]}")
    print(f"generations: {shrink.generations_run}")
    print(f"best genome: {genome.to_record()}")
    print(f"best fitness: {format_float(shrink.best_fitness)}")
    print(f"params: {shrink.best_cost.params}")
    print(f"flops: {shrink.best_cost.flops}")
    if args.out:
        write_run_report(
            args.out,
            cfg,
            int(cfg["seed"]),
            trace=trace,
            evolution_history=shrink.history,
            genome=genome,
            genome_fitness=shrink.best_fitness,
            genome_cost=shrink.best_cost,
        )
        print(f"report: {args.out}")
    return 0


def cmd_run_all(args) -> int:
    cfg = load_config(args.config, args.seed)
    with _incomplete_report_on_failure(args, cfg):
        result = run_pipeline(cfg)
    print(f"chosen path: {result.trace.chosen_path}")
    print(f"operators: {result.trace.g_optr}")
    print(f"genome: {result.genome.to_record()}")
    print(f"oracle calls: {result.trace.total_oracle_calls}")
    print(f"searched fitness: {format_float(result.searched_fitness)}")
    print(f"fine-tuned fitness: {format_float(result.final_fitness)}")
    if args.out:
        report_pipeline(result, args.out)
        print(f"report: {args.out}")
    return 0


def cmd_baseline_joint(args) -> int:
    cfg = load_config(args.config, args.seed)
    evo = EvoConfig.from_mapping(cfg["evolution"])
    _, dataset, weights, _ = _prepared(cfg, args.checkpoint)

    joint_oracle = GanOracle(weights, dataset)
    joint = joint_search_baseline(joint_oracle, evo.params_limit, evo.flops_limit)

    search_oracle = GanOracle(weights, dataset)
    genome, trace, _ = run_search(
        search_oracle, evo, as_rng(child_seed(int(cfg["seed"]), "search"))
    )
    ratio = joint.evaluations / trace.total_oracle_calls
    staged = search_oracle.evaluate(genome).fitness
    print(f"joint optimum: {joint.genome.to_record()}")
    print(f"joint fitness: {format_float(joint.fitness)}")
    print(f"joint evaluations: {joint.evaluations}")
    print(f"coarse-to-fine genome: {genome.to_record()}")
    print(f"coarse-to-fine fitness: {format_float(staged)}")
    print(f"coarse-to-fine evaluations: {trace.total_oracle_calls}")
    print(f"evaluation ratio: {format_float(ratio)}")
    print(f"coarse-to-fine percentile: {format_float(joint.percentile(staged))}")
    print(f"coarse-to-fine gap: {format_float(joint.gap(staged))}")
    return 0


def cmd_verify_fairness(args) -> int:
    try:
        with open(args.ledger, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read ledger {args.ledger}: {exc}") from exc
    ledger = FairnessLedger.load(text)
    problems = ledger.violations()
    if problems:
        for line in problems:
            print(f"violation: {line}")
        return 4
    # ``trials`` counts path cycles; a fair ledger has one per path per epoch.
    print(f"fair after {ledger.trials // len(ledger.generator_counts)} epochs")
    return 0


def cmd_enumerate(args) -> int:
    if args.M is not None or args.L is not None:
        if args.M is None or args.L is None:
            raise ConfigError("enumerate needs both --M and --L, or neither")
        print(operator_specialization_count(args.M, args.L))
        return 0
    cfg = load_config(args.config, None)
    spec = spec_from_dict(cfg["space"])
    print(f"paths: {spec.num_paths}")
    for p, path in enumerate(spec.paths):
        count = operator_specialization_count(path.num_operators, path.num_layers)
        print(
            f"path {p}: layers={path.num_layers} operators={path.num_operators} "
            f"specializations={count}"
        )
    print(f"genomes: {genome_space_size(spec)}")
    return 0


def cmd_analyze_uniform(args) -> int:
    if args.M < 1 or args.t < 1:
        raise ConfigError(
            f"analyze-uniform needs --M >= 1 and --t >= 1, got {args.M} and {args.t}"
        )
    if args.table:
        print("# t\tprobability")
        for t in range(args.M, args.t + 1, args.M):
            value = uniform_equal_probability(args.M, t)
            print(f"{t}\t{format_float(value)}")
        return 0
    print(format_float(uniform_equal_probability(args.M, args.t)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfsearch",
        description="Coarse-to-fine architecture search on a toy adversarial task.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, out=False):
        p.add_argument("--config", help="YAML config overlaying the defaults")
        p.add_argument("--seed", type=int, help="override the config seed")
        if checkpoint:
            p.add_argument(
                "--checkpoint", help="reuse pretrained weights instead of training"
            )
        if out:
            p.add_argument("--out", help="directory for the run report")

    p = sub.add_parser("pretrain", help="fair supernet pretraining")
    common(p, out=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("search-path", help="stage 1: path choice")
    common(p, checkpoint=True)
    p.set_defaults(func=cmd_search_path)

    p = sub.add_parser("search-operator", help="stages 1-2: operator choice")
    common(p, checkpoint=True)
    p.set_defaults(func=cmd_search_operator)

    p = sub.add_parser("shrink", help="stages 1-3: evolutionary channel search")
    common(p, checkpoint=True, out=True)
    p.set_defaults(func=cmd_shrink)

    p = sub.add_parser("run-all", help="full pipeline with fine-tuning")
    common(p, out=True)
    p.set_defaults(func=cmd_run_all)

    p = sub.add_parser("baseline-joint", help="exhaustive joint search comparison")
    common(p, checkpoint=True)
    p.set_defaults(func=cmd_baseline_joint)

    p = sub.add_parser("verify-fairness", help="check a dumped fairness ledger")
    p.add_argument("ledger", help="path to a ledger dump")
    p.set_defaults(func=cmd_verify_fairness)

    p = sub.add_parser("enumerate", help="specialization and space counting")
    p.add_argument("--M", type=int, help="operator candidates per layer")
    p.add_argument("--L", type=int, help="layer count")
    p.add_argument("--config", help="count a configured space instead")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "analyze-uniform", help="equal-usage probability of uniform sampling"
    )
    p.add_argument("--M", type=int, required=True, help="operator candidates")
    p.add_argument("--t", type=int, required=True, help="training steps")
    p.add_argument(
        "--table", action="store_true", help="print all multiples of M up to t"
    )
    p.set_defaults(func=cmd_analyze_uniform)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # A diverging run ends in a finite check's exit 4; numpy's overflow
        # warnings on the way there would only clutter that message.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ConfigError, GenomeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (InvariantError, NonFiniteLossError, ShapeError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
