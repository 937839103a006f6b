"""The coarse-to-fine search pipeline and its exhaustive counterpart.

Search proceeds in three narrowing stages on one shared fitness oracle:
pick the best path by whole-path inference, pick the best operator
assignment on that path by scoring each assignment once at full width,
then shrink channels evolutionarily.  Each stage fixes its
decision before the next begins, which turns the product-sized joint
space into a sum of three small stages; the trace records every score
so the cost claim is checkable by counting.

``joint_search_baseline`` is the brute-force reference and the only
exhaustive scan: it evaluates the entire genome space and returns the
constrained argmax with the feasible ranking, serving both as the quality
yardstick (the staged genome's percentile and gap) and as the denominator
of the cost comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EnumerationTooLargeError, InfeasibleError
from .evolution import EvoConfig, ShrinkResult, shrink_channels
from .oracles import FitnessOracle, GanOracle, _require_finite
from .space import (
    DEFAULT_ENUMERATION_CAP,
    ArchitectureGenome,
    SupernetSpec,
    enumerate_genomes,
    genome_space_size,
    maximal_genome,
    spec_from_dict,
)
from .trainer import (
    PretrainResult,
    ToyDataset,
    TrainConfig,
    evaluate_genome,
    finetune_genome,
    make_dataset,
    pretrain_supernet,
)
from .util import as_rng, child_seed

STAGE_PATH = "path"
STAGE_OPERATOR = "operator"
STAGE_CHANNEL = "channel"


@dataclass(frozen=True)
class StageRecord:
    """One scored candidate: its identifier, fitness, and cost if any."""

    label: str
    fitness: float
    params: int | None = None
    flops: int | None = None


@dataclass
class SearchTrace:
    """Everything the three stages looked at, in evaluation order.

    ``oracle_calls`` counts scoring events per stage: the path stage has
    one per path, the operator stage one per operator assignment (M**L),
    and the channel stage one per unique genome the evolutionary budget
    paid for.  Each stage's record list has exactly that many rows, so
    the counts are the lists' lengths.  ``g_optr`` is
    the operator stage's choice at full width and ``g_channel`` the
    searched genome; ``run_search`` fills every field before it returns
    the trace.
    """

    path_records: tuple[StageRecord, ...] = ()
    operator_records: tuple[StageRecord, ...] = ()
    channel_records: tuple[StageRecord, ...] = ()
    chosen_path: int | None = None
    g_optr: str | None = None
    g_channel: str | None = None

    @property
    def oracle_calls(self) -> dict[str, int]:
        return {
            STAGE_PATH: len(self.path_records),
            STAGE_OPERATOR: len(self.operator_records),
            STAGE_CHANNEL: len(self.channel_records),
        }

    @property
    def total_oracle_calls(self) -> int:
        return sum(self.oracle_calls.values())


def search_path(oracle: FitnessOracle) -> tuple[int, list[StageRecord]]:
    """Stage 1: score every path once; highest wins, ties to lowest index."""
    if oracle.spec.num_paths < 1:
        raise ConfigError("search space has no paths")
    records = []
    best_path = None
    best_fitness = -np.inf
    for p in range(oracle.spec.num_paths):
        fitness = oracle.path_score(p)
        records.append(StageRecord(label=f"path:{p}", fitness=fitness))
        if best_path is None or fitness > best_fitness:
            best_path = p
            best_fitness = fitness
    return best_path, records


def search_operators(
    oracle: FitnessOracle, path_index: int
) -> tuple[tuple[int, ...], list[StageRecord]]:
    """Stage 2: score every operator assignment once at full width.

    Assignments run in canonical order, as ``enumerate_genomes`` lists
    them; the choice is the argmax, ties to the lexicographically
    smallest.  More than ``DEFAULT_ENUMERATION_CAP`` assignments raise
    ``EnumerationTooLargeError``.
    """
    spec = oracle.spec
    path = spec.paths[path_index]
    m, layers = path.num_operators, path.num_layers
    if m**layers > DEFAULT_ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"operator space M**L = {m}**{layers} exceeds cap {DEFAULT_ENUMERATION_CAP}; "
            f"use a smaller (M, L)"
        )
    widest = maximal_genome(spec, path_index)
    records = []
    best_ops: tuple[int, ...] | None = None
    best_fitness = -np.inf
    for assignment in itertools.product(range(m), repeat=layers):
        genome = replace(widest, operator_assignment=assignment)
        result = oracle.evaluate(genome)
        records.append(
            StageRecord(
                label=genome.to_record(),
                fitness=result.fitness,
                params=result.cost.params,
                flops=result.cost.flops,
            )
        )
        if best_ops is None or result.fitness > best_fitness:
            best_ops = assignment
            best_fitness = result.fitness
    return best_ops, records


def run_search(
    oracle: FitnessOracle,
    evo_cfg: EvoConfig,
    rng: np.random.Generator,
) -> tuple[ArchitectureGenome, SearchTrace, ShrinkResult]:
    """Stages 1 to 3 on one oracle; oracle-agnostic by design.

    The path and operator stages are exhaustive and draw nothing; ``rng``
    drives the evolutionary stage alone, so a single seed fixes the whole
    trace.
    """
    trace = SearchTrace()

    chosen_path, path_records = search_path(oracle)
    trace.path_records = tuple(path_records)
    trace.chosen_path = chosen_path

    best_ops, op_records = search_operators(oracle, chosen_path)
    g_optr = replace(maximal_genome(oracle.spec, chosen_path), operator_assignment=best_ops)
    trace.operator_records = tuple(op_records)
    trace.g_optr = g_optr.to_record()

    known_before = oracle.genome_evaluations
    shrink = shrink_channels(g_optr, oracle, evo_cfg, rng)
    new_entries = oracle.cache_snapshot(known_before)
    trace.channel_records = tuple(
        StageRecord(
            label=record,
            fitness=result.fitness,
            params=result.cost.params,
            flops=result.cost.flops,
        )
        for record, result in new_entries
    )
    trace.g_channel = shrink.best_genome.to_record()
    return shrink.best_genome, trace, shrink


# -- the full pipeline -------------------------------------------------------


@dataclass
class PipelineResult:
    """Artifacts of a full pretrain-search-finetune run."""

    config: dict
    spec: SupernetSpec
    dataset: ToyDataset
    pretrain: PretrainResult
    trace: SearchTrace
    shrink: ShrinkResult
    genome: ArchitectureGenome
    searched_fitness: float
    finetuned_weights: object
    finetune_metrics: list[dict]
    final_fitness: float


def prepare(config: dict) -> tuple[SupernetSpec, ToyDataset, TrainConfig]:
    """The search space, the seeded dataset and the training settings."""
    spec = spec_from_dict(config["space"])
    dataset = make_dataset(
        config["task"],
        config["dataset"]["samples"],
        config["dataset"]["val_fraction"],
        child_seed(int(config["seed"]), "dataset"),
    )
    return spec, dataset, TrainConfig(**config["train"])


def run_pipeline(config: dict) -> PipelineResult:
    """Pretrain fairly, search coarse-to-fine, fine-tune the winner.

    All randomness fans out from ``config['seed']`` through per-phase
    child seeds, so two runs with the same config agree bit for bit.
    Fine-tuning happens on a clone, with no sparsity term; the pretrained
    supernet survives unmodified for later inspection.  A non-finite
    fine-tuned fitness raises ``InvariantError`` naming the genome.
    """
    seed = int(config["seed"])
    spec, dataset, train_cfg = prepare(config)
    evo_cfg = EvoConfig.from_mapping(config["evolution"])
    pretrain = pretrain_supernet(spec, dataset, train_cfg, child_seed(seed, "pretrain"))

    oracle = GanOracle(pretrain.weights, dataset)
    genome, trace, shrink = run_search(
        oracle, evo_cfg, as_rng(child_seed(seed, "search"))
    )
    searched_fitness = oracle.evaluate(genome).fitness

    finetuned = pretrain.weights.clone()
    finetune_metrics = finetune_genome(
        finetuned,
        genome,
        dataset,
        train_cfg,
        config["search"]["finetune_epochs"],
        child_seed(seed, "finetune"),
    )
    final_fitness = _require_finite(
        evaluate_genome(finetuned, genome, dataset), f"fine-tuned genome {genome.to_record()}"
    )
    return PipelineResult(
        config=config,
        spec=spec,
        dataset=dataset,
        pretrain=pretrain,
        trace=trace,
        shrink=shrink,
        genome=genome,
        searched_fitness=searched_fitness,
        finetuned_weights=finetuned,
        finetune_metrics=finetune_metrics,
        final_fitness=final_fitness,
    )


# -- exhaustive baseline -----------------------------------------------------


@dataclass(frozen=True)
class JointResult:
    """The feasible argmax and the fitness of every feasible genome.

    ``feasible`` is descending.  ``percentile(f)`` is the share of
    feasible genomes whose fitness is at most ``f``, so the optimum gets
    1.0 and the worst feasible genome ``1 / len(feasible)``.
    ``gap(f)`` is ``fitness - f``, the optimum's lead over ``f``.
    """

    genome: ArchitectureGenome
    fitness: float
    evaluations: int
    feasible: tuple[float, ...]

    def percentile(self, f: float) -> float:
        return sum(value <= f for value in self.feasible) / len(self.feasible)

    def gap(self, f: float) -> float:
        return self.fitness - f


def joint_search_baseline(
    oracle: FitnessOracle,
    params_limit: float = float("inf"),
    flops_limit: float = float("inf"),
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> JointResult:
    """Evaluate every genome; return the feasible ranking.

    The ground truth the coarse-to-fine result is judged against, and
    the product-count denominator of the search-cost comparison.  Scans
    in canonical order and keeps the first maximum, so ties resolve to
    the lexicographically smallest genome.  Limits are strict, as in
    ``satisfies_constraints``.  When nothing is feasible, the error names
    the limit no genome meets, or the joint constraint if each limit
    alone is met.
    """
    size = genome_space_size(oracle.spec)
    if size > cap:
        raise ConfigError(
            f"joint search over {size} genomes exceeds the cap {cap}"
        )
    best: tuple[ArchitectureGenome, float] | None = None
    feasible = []
    any_params_ok = any_flops_ok = False
    for genome in enumerate_genomes(oracle.spec):
        result = oracle.evaluate(genome)
        params_ok = result.cost.params < params_limit
        flops_ok = result.cost.flops < flops_limit
        any_params_ok = any_params_ok or params_ok
        any_flops_ok = any_flops_ok or flops_ok
        if not (params_ok and flops_ok):
            continue
        feasible.append(result.fitness)
        if best is None or result.fitness > best[1]:
            best = (genome, result.fitness)
    if best is None:
        if not any_params_ok:
            tightest = f"params limit {params_limit}"
        elif not any_flops_ok:
            tightest = f"flops limit {flops_limit}"
        else:
            tightest = (
                f"joint constraint (params < {params_limit}, flops < {flops_limit})"
            )
        raise InfeasibleError(f"no genome satisfies the {tightest}")
    feasible.sort(reverse=True)
    return JointResult(
        genome=best[0], fitness=best[1], evaluations=size, feasible=tuple(feasible)
    )
