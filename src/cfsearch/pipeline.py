"""The coarse-to-fine search pipeline and its exhaustive counterpart.

Search proceeds in three narrowing stages on one shared fitness oracle:
pick the best path by whole-path inference, pick the best operator
assignment on that path by enumerating specializations at full width,
then shrink channels and depths evolutionarily.  Each stage fixes its
decision before the next begins, which turns the product-sized joint
space into a sum of three small stages; the trace records every score
so the cost claim is checkable by counting.

``joint_search_baseline`` is the brute-force reference: it evaluates the
entire genome space and returns the constrained argmax, serving both as
the quality yardstick and as the denominator of the cost comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .costs import satisfies_constraints
from .errors import ConfigError, InfeasibleError
from .evolution import EvoConfig, GenerationRow, ShrinkResult, shrink_channels
from .oracles import FitnessOracle, GanOracle, OracleResult
from .space import (
    DEFAULT_ENUMERATION_CAP,
    ArchitectureGenome,
    SupernetSpec,
    enumerate_genomes,
    enumerate_paths,
    enumerate_specializations,
    genome_space_size,
    maximal_genome,
    sample_specializations,
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
    one per path, the operator stage one per member of every
    specialization (M * N_o, even when members repeat across
    specializations), and the channel stage one per unique genome the
    evolutionary budget paid for.  Each stage's record list has exactly
    that many rows.
    """

    path_records: tuple[StageRecord, ...] = ()
    operator_records: tuple[StageRecord, ...] = ()
    channel_records: tuple[StageRecord, ...] = ()
    chosen_path: int | None = None
    g_optr: str | None = None
    g_channel: str | None = None
    g_star: str | None = None
    oracle_calls: dict[str, int] = field(default_factory=dict)
    evolution_history: tuple[GenerationRow, ...] = ()
    sampled_operators: bool = False
    incomplete: bool = True

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
    for p in enumerate_paths(oracle.spec):
        fitness = oracle.path_score(p)
        records.append(StageRecord(label=f"path:{p}", fitness=fitness))
        if best_path is None or fitness > best_fitness:
            best_path = p
            best_fitness = fitness
    return best_path, records


def search_operators(
    oracle: FitnessOracle,
    path_index: int,
    sample_count: int | None = None,
    rng: np.random.Generator | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[tuple[int, ...], list[StageRecord], bool]:
    """Stage 2: score every member of every specialization at full width.

    Specializations group the assignments into per-layer-disjoint M-sets
    so sampling covers candidates without replacement; the choice is the
    argmax over individual assignments, ties to the lexicographically
    smallest.  Past the enumeration cap the caller must pass
    ``sample_count`` to switch to deduplicated random specializations.
    """
    spec = oracle.spec
    path = spec.paths[path_index]
    m, layers = path.num_operators, path.num_layers
    sampled = False
    if sample_count is None:
        specializations = enumerate_specializations(m, layers, cap)
    else:
        if rng is None:
            raise ConfigError("sampled operator search needs a random generator")
        specializations = sample_specializations(m, layers, sample_count, rng)
        sampled = True
    widest = maximal_genome(spec, path_index)
    records = []
    best_ops: tuple[int, ...] | None = None
    best_fitness = -np.inf
    for members in specializations:
        for assignment in members:
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
            better = result.fitness > best_fitness or (
                result.fitness == best_fitness
                and best_ops is not None
                and assignment < best_ops
            )
            if best_ops is None or better:
                best_ops = assignment
                best_fitness = result.fitness
    assert best_ops is not None
    return best_ops, records, sampled


def run_search(
    oracle: FitnessOracle,
    evo_cfg: EvoConfig,
    rng: np.random.Generator | int | None = None,
    operator_sample: int | None = None,
) -> tuple[ArchitectureGenome, SearchTrace, ShrinkResult]:
    """Stages 1 to 3 on one oracle; oracle-agnostic by design.

    The same generator drives sampled operator search (when used) and
    the evolutionary stage, so a single seed fixes the whole trace.
    """
    rng = as_rng(rng if rng is not None else evo_cfg.seed)
    trace = SearchTrace()

    chosen_path, path_records = search_path(oracle)
    trace.path_records = tuple(path_records)
    trace.chosen_path = chosen_path
    trace.oracle_calls[STAGE_PATH] = len(path_records)

    best_ops, op_records, sampled = search_operators(
        oracle, chosen_path, sample_count=operator_sample, rng=rng
    )
    g_optr = replace(maximal_genome(oracle.spec, chosen_path), operator_assignment=best_ops)
    trace.operator_records = tuple(op_records)
    trace.g_optr = g_optr.to_record()
    trace.oracle_calls[STAGE_OPERATOR] = len(op_records)
    trace.sampled_operators = sampled

    known_before = len(oracle.cache_snapshot())
    shrink = shrink_channels(g_optr, oracle, evo_cfg, rng)
    new_entries = oracle.cache_snapshot()[known_before:]
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
    trace.g_star = trace.g_channel
    trace.oracle_calls[STAGE_CHANNEL] = len(new_entries)
    trace.evolution_history = shrink.history
    trace.incomplete = False
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
        int(config["dataset"]["samples"]),
        float(config["dataset"]["val_fraction"]),
        child_seed(int(config["seed"]), "dataset"),
    )
    try:
        train_cfg = TrainConfig(**config["train"])
    except TypeError as exc:
        raise ConfigError(f"bad train section: {exc}") from None
    return spec, dataset, train_cfg


def run_pipeline(config: dict) -> PipelineResult:
    """Pretrain fairly, search coarse-to-fine, fine-tune the winner.

    All randomness fans out from ``config['seed']`` through per-phase
    child seeds, so two runs with the same config agree bit for bit.
    Fine-tuning happens on a clone with the sparsity weight zeroed; the
    pretrained supernet survives unmodified for later inspection.
    """
    seed = int(config["seed"])
    spec, dataset, train_cfg = prepare(config)
    pretrain = pretrain_supernet(spec, dataset, train_cfg, child_seed(seed, "pretrain"))

    oracle = GanOracle(pretrain.weights, dataset)
    evo_cfg = EvoConfig.from_mapping(config["evolution"])
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
        int(config["search"]["finetune_epochs"]),
        child_seed(seed, "finetune"),
    )
    final_fitness = evaluate_genome(finetuned, genome, dataset)
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
    genome: ArchitectureGenome
    fitness: float
    result: OracleResult
    evaluations: int


def joint_search_baseline(
    oracle: FitnessOracle,
    params_limit: float = float("inf"),
    flops_limit: float = float("inf"),
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> JointResult:
    """Evaluate every genome; return the feasible argmax.

    The ground truth the coarse-to-fine result is judged against, and
    the product-count denominator of the search-cost comparison.  Scans
    in canonical order and keeps the first maximum, so ties resolve to
    the lexicographically smallest genome.
    """
    size = genome_space_size(oracle.spec)
    if size > cap:
        raise ConfigError(
            f"joint search over {size} genomes exceeds the cap {cap}"
        )
    best: tuple[ArchitectureGenome, OracleResult] | None = None
    count = 0
    for genome in enumerate_genomes(oracle.spec):
        result = oracle.evaluate(genome)
        count += 1
        if not satisfies_constraints(result.cost, params_limit, flops_limit):
            continue
        if best is None or result.fitness > best[1].fitness:
            best = (genome, result)
    if best is None:
        raise InfeasibleError(
            f"no genome satisfies params < {params_limit} and flops < {flops_limit}"
        )
    return JointResult(
        genome=best[0],
        fitness=best[1].fitness,
        result=best[1],
        evaluations=count,
    )
