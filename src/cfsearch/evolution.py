"""Evolutionary channel shrinking with gain-directed mutation.

The channel stage keeps a small population of channel and depth
assignments over a fixed path and operator choice, ranks them by oracle
fitness under parameter and FLOP budgets, and breeds each generation
from the elites: part of it by per-layer crossover, half by mutating a
single layer.  Mutation is *directional*: the replacement channel is
drawn with probability proportional to the normalized replacement gain
of that width at that layer, measured against the current best elite.

Oracle accounting is in unique genomes.  Re-scoring a cached genome is
free, so the evaluation budget bounds exactly how many new genomes the
stage may touch, independent of population size or generation count.
When a whole generation produces nothing new and budget remains, the
loop spends it on seeded random feasible probes instead of stalling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import CostReport, satisfies_constraints
from .errors import ConfigError, GenomeError, InfeasibleError
from .oracles import FitnessOracle
from .space import ArchitectureGenome, SupernetSpec, require_valid
from .util import as_rng

MUTATION_DIRECTIONAL = "directional"
MUTATION_RANDOM = "random"
MUTATION_MODES = (MUTATION_DIRECTIONAL, MUTATION_RANDOM)

RG_REFRESH_ON_ELITE_CHANGE = "on_elite_change"
RG_REFRESH_ONCE = "once"
RG_REFRESH_MODES = (RG_REFRESH_ON_ELITE_CHANGE, RG_REFRESH_ONCE)

# Attempts at drawing a feasible candidate before falling back to the
# narrowest configuration.
FEASIBLE_RETRY_LIMIT = 50


@dataclass(frozen=True)
class EvoConfig:
    """Knobs of the channel-shrinking stage.

    The population is split consistently every generation: the top
    ``elites`` survive unchanged, ``population // 2 - elites`` children
    come from crossover among the elites, and ``population // 2`` from
    mutation of the elites, so ``elites <= population // 2`` must hold.
    ``eval_budget`` caps unique oracle evaluations for the whole stage,
    including replacement-gain probes.
    """

    population: int = 12
    elites: int = 4
    generations: int = 40
    eval_budget: int = 40
    params_limit: float = float("inf")
    flops_limit: float = float("inf")
    epsilon: float = 1e-8
    mutation: str = MUTATION_DIRECTIONAL
    rg_refresh: str = RG_REFRESH_ON_ELITE_CHANGE
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.population < 2 or self.population % 2 != 0:
            raise ConfigError(
                f"population must be even and >= 2, got {self.population}"
            )
        if not 1 <= self.elites <= self.population // 2:
            raise ConfigError(
                f"elites must be in [1, population // 2] = "
                f"[1, {self.population // 2}], got {self.elites}"
            )
        if self.generations < 1:
            raise ConfigError(f"generations must be >= 1, got {self.generations}")
        if self.eval_budget < 1:
            raise ConfigError(f"eval_budget must be >= 1, got {self.eval_budget}")
        if not self.params_limit > 0:
            raise ConfigError(f"params_limit must be > 0, got {self.params_limit}")
        if not self.flops_limit > 0:
            raise ConfigError(f"flops_limit must be > 0, got {self.flops_limit}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.mutation not in MUTATION_MODES:
            raise ConfigError(
                f"mutation must be one of {MUTATION_MODES}, got {self.mutation!r}"
            )
        if self.rg_refresh not in RG_REFRESH_MODES:
            raise ConfigError(
                f"rg_refresh must be one of {RG_REFRESH_MODES}, "
                f"got {self.rg_refresh!r}"
            )

    @staticmethod
    def from_mapping(raw: dict) -> "EvoConfig":
        known = {f for f in EvoConfig.__dataclass_fields__}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown evolution config keys: {unknown}")
        return EvoConfig(**raw)


@dataclass
class RGTable:
    """Replacement gains and the mutation distribution derived from them.

    ``rg[j, l]`` is the fitness delta from replacing layer ``l``'s
    channel choice with index ``j`` on the anchor genome; the anchor's
    own choice scores exactly zero.  ``p_select[:, l]`` is the per-layer
    probability distribution used by directional mutation.  ``staleness``
    counts generations since the table was last recomputed.
    """

    rg: np.ndarray
    p_select: np.ndarray = field(default=None)  # type: ignore[assignment]
    baseline: str = ""
    staleness: int = 0


def compute_rg(
    baseline: ArchitectureGenome, oracle: FitnessOracle, epsilon: float = 1e-8
) -> RGTable:
    """Measure the gain of every single-layer channel replacement.

    Entries where the replacement equals the baseline's current choice
    are zero by definition and cost no oracle call; everything else is
    one (cached) evaluation, so a fresh table costs at most
    ``num_choices * num_layers`` minus the baseline's own entries.
    """
    spec = oracle.spec
    require_valid(spec, baseline)
    path = spec.paths[baseline.path_index]
    num_layers = path.num_layers
    num_choices = spec.num_channel_choices
    base_fitness = oracle.evaluate(baseline).fitness
    rg = np.zeros((num_choices, num_layers), dtype=np.float64)
    for l in range(num_layers):
        own = baseline.channel_assignment[l]
        for j in range(num_choices):
            if j == own:
                continue
            replaced = _with_channel(baseline, l, j)
            rg[j, l] = oracle.evaluate(replaced).fitness - base_fitness
    table = RGTable(rg=rg, baseline=baseline.to_record())
    return normalize_rg(table, epsilon)


def normalize_rg(table: RGTable, epsilon: float = 1e-8) -> RGTable:
    """Shift each layer's gains to be positive and normalize to a pmf.

    Per layer: ``shifted = rg - min_j rg + epsilon`` guarantees strictly
    positive mass, then ``p_select`` divides by the per-layer sum.  A
    layer whose gains are all equal comes out uniform.
    """
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon}")
    shifted = table.rg - table.rg.min(axis=0, keepdims=True) + epsilon
    table.p_select = shifted / shifted.sum(axis=0, keepdims=True)
    return table


def _with_channel(
    genome: ArchitectureGenome, layer: int, choice: int
) -> ArchitectureGenome:
    channels = list(genome.channel_assignment)
    channels[layer] = choice
    return ArchitectureGenome(
        genome.path_index,
        genome.operator_assignment,
        tuple(channels),
        genome.recursion_assignment,
    )


def _uniform_table(num_choices: int, num_layers: int, epsilon: float) -> RGTable:
    """A flat table for use before any gains have been measured."""
    table = RGTable(rg=np.zeros((num_choices, num_layers), dtype=np.float64))
    return normalize_rg(table, epsilon)


def mutate_directional(
    parent: ArchitectureGenome,
    table: RGTable,
    spec: SupernetSpec,
    rng: np.random.Generator,
) -> ArchitectureGenome:
    """Replace one uniformly chosen layer's channel, biased by gains.

    The new channel index is drawn from the table's per-layer
    distribution; when the layer searches recursion depth too, its depth
    is redrawn uniformly alongside.  All other genes are copied, so the
    child differs from the parent in at most one layer.
    """
    path = spec.paths[parent.path_index]
    layer = int(rng.integers(path.num_layers))
    probs = table.p_select[:, layer]
    choice = int(rng.choice(len(probs), p=probs))
    child = _with_channel(parent, layer, choice)
    child = _maybe_redraw_recursion(child, layer, spec, rng)
    require_valid(spec, child)
    return child


def mutate_random(
    parent: ArchitectureGenome, spec: SupernetSpec, rng: np.random.Generator
) -> ArchitectureGenome:
    """Undirected counterpart: uniform layer, uniform replacement."""
    path = spec.paths[parent.path_index]
    layer = int(rng.integers(path.num_layers))
    choice = int(rng.integers(spec.num_channel_choices))
    child = _with_channel(parent, layer, choice)
    child = _maybe_redraw_recursion(child, layer, spec, rng)
    require_valid(spec, child)
    return child


def _maybe_redraw_recursion(
    genome: ArchitectureGenome,
    layer: int,
    spec: SupernetSpec,
    rng: np.random.Generator,
) -> ArchitectureGenome:
    choices = spec.paths[genome.path_index].layers[layer].recursion_choices
    if len(choices) <= 1:
        return genome
    rec = list(genome.recursion_assignment)
    rec[layer] = int(rng.integers(len(choices)))
    return ArchitectureGenome(
        genome.path_index,
        genome.operator_assignment,
        genome.channel_assignment,
        tuple(rec),
    )


def crossover(
    parent_a: ArchitectureGenome,
    parent_b: ArchitectureGenome,
    rng: np.random.Generator,
) -> ArchitectureGenome:
    """Per-layer gene pick between two parents on the same path.

    A layer's gene is its (channel, recursion) pair; each layer takes
    the whole pair from one parent, chosen by a fair coin.  Parents must
    agree on path and operator assignment.
    """
    if parent_a.path_index != parent_b.path_index:
        raise GenomeError(
            f"crossover parents on different paths: "
            f"{parent_a.path_index} vs {parent_b.path_index}"
        )
    if parent_a.operator_assignment != parent_b.operator_assignment:
        raise GenomeError(
            f"crossover parents with different operator assignments: "
            f"{parent_a.operator_assignment} vs {parent_b.operator_assignment}"
        )
    channels = []
    recursions = []
    for l in range(len(parent_a.channel_assignment)):
        source = parent_a if rng.integers(2) == 0 else parent_b
        channels.append(source.channel_assignment[l])
        recursions.append(source.recursion_assignment[l])
    return ArchitectureGenome(
        parent_a.path_index,
        parent_a.operator_assignment,
        tuple(channels),
        tuple(recursions),
    )


# -- the shrinking loop ------------------------------------------------------


@dataclass(frozen=True)
class GenerationRow:
    """One CSV row of the per-generation log."""

    generation: int
    best_fitness: float
    mean_fitness: float
    oracle_calls: int
    feasible_fraction: float


@dataclass
class ShrinkResult:
    best_genome: ArchitectureGenome
    best_fitness: float
    best_cost: CostReport
    history: tuple[GenerationRow, ...]
    oracle_calls: int
    generations_run: int
    rg_table: RGTable | None


def shrink_channels(
    base_genome: ArchitectureGenome,
    oracle: FitnessOracle,
    cfg: EvoConfig,
    rng: np.random.Generator | None = None,
) -> ShrinkResult:
    """Search channel widths and recursion depths under cost constraints.

    ``base_genome`` fixes the path and operator assignment; only its
    channel and recursion genes are searched.  The population starts
    from uniformly random feasible draws and every candidate is feasible
    at birth (bounded resampling, then the narrowest configuration as a
    last resort).  Returns the best feasible genome ever evaluated; its
    fitness is non-decreasing over the history by elitism.

    Raises ``InfeasibleError`` when even the narrowest configuration
    violates the constraints, naming the most violated one.
    """
    spec = oracle.spec
    require_valid(spec, base_genome)
    if rng is None:
        rng = as_rng(cfg.seed)
    path = spec.paths[base_genome.path_index]
    num_layers = path.num_layers
    num_choices = spec.num_channel_choices

    fallback = ArchitectureGenome(
        base_genome.path_index,
        base_genome.operator_assignment,
        tuple(0 for _ in range(num_layers)),
        tuple(0 for _ in range(num_layers)),
    )
    _require_feasible_floor(oracle, fallback, cfg)

    start_unique = oracle.genome_evaluations

    def spent() -> int:
        return oracle.genome_evaluations - start_unique

    def score(genome: ArchitectureGenome) -> float | None:
        """Evaluate within budget; cached genomes are always free."""
        if not oracle.cached(genome) and spent() >= cfg.eval_budget:
            return None
        return oracle.evaluate(genome).fitness

    def feasible(genome: ArchitectureGenome) -> bool:
        return satisfies_constraints(
            oracle.cost(genome), cfg.params_limit, cfg.flops_limit
        )

    draw_attempts = 0
    draw_accepts = 0

    def count_draw(genome: ArchitectureGenome) -> bool:
        nonlocal draw_attempts, draw_accepts
        draw_attempts += 1
        ok = feasible(genome)
        if ok:
            draw_accepts += 1
        return ok

    def random_genome() -> ArchitectureGenome:
        channels = tuple(
            int(v) for v in rng.integers(0, num_choices, size=num_layers)
        )
        recursions = tuple(
            int(rng.integers(len(layer.recursion_choices))) for layer in path.layers
        )
        return ArchitectureGenome(
            base_genome.path_index,
            base_genome.operator_assignment,
            channels,
            recursions,
        )

    def draw_feasible(make) -> ArchitectureGenome:
        for _ in range(FEASIBLE_RETRY_LIMIT):
            candidate = make()
            if count_draw(candidate):
                return candidate
        count_draw(fallback)
        return fallback

    population = [draw_feasible(random_genome) for _ in range(cfg.population)]

    best_genome: ArchitectureGenome | None = None
    best_fitness = -np.inf
    table = _uniform_table(num_choices, num_layers, cfg.epsilon)
    table_fresh = False
    history: list[GenerationRow] = []
    generations_run = 0

    def consider(genome: ArchitectureGenome, fitness: float) -> None:
        nonlocal best_genome, best_fitness
        if best_genome is None or fitness > best_fitness:
            best_genome = genome
            best_fitness = fitness

    def score_population() -> int:
        before = oracle.genome_evaluations
        for member in population:
            fitness = score(member)
            if fitness is not None:
                consider(member, fitness)
        return oracle.genome_evaluations - before

    score_population()

    for generation in range(cfg.generations):
        generations_run = generation + 1
        ranked = sorted(
            (
                (member, oracle.evaluate(member).fitness)
                for member in population
                if oracle.cached(member)
            ),
            key=lambda item: (-item[1], item[0].sort_key()),
        )
        if not ranked:
            break
        fitnesses = [fitness for _, fitness in ranked]
        fraction = draw_accepts / draw_attempts if draw_attempts else 1.0
        history.append(
            GenerationRow(
                generation=generation,
                best_fitness=best_fitness,
                mean_fitness=float(np.mean(fitnesses)),
                oracle_calls=spent(),
                feasible_fraction=fraction,
            )
        )
        if spent() >= cfg.eval_budget or generation == cfg.generations - 1:
            break

        elites = [member for member, _ in ranked[: cfg.elites]]
        if cfg.mutation == MUTATION_DIRECTIONAL:
            elite_record = elites[0].to_record()
            wants_refresh = not table_fresh or (
                cfg.rg_refresh == RG_REFRESH_ON_ELITE_CHANGE
                and elite_record != table.baseline
            )
            if wants_refresh:
                refreshed = _refresh_if_affordable(elites[0], oracle, cfg, spent())
                if refreshed is not None:
                    table = refreshed
                    table_fresh = True
                else:
                    table.staleness += 1
            else:
                table.staleness += 1

        draw_attempts = 0
        draw_accepts = 0

        def crossover_child() -> ArchitectureGenome:
            a = elites[int(rng.integers(len(elites)))]
            b = elites[int(rng.integers(len(elites)))]
            return crossover(a, b, rng)

        def mutation_child() -> ArchitectureGenome:
            parent = elites[int(rng.integers(len(elites)))]
            if cfg.mutation == MUTATION_DIRECTIONAL:
                return mutate_directional(parent, table, spec, rng)
            return mutate_random(parent, spec, rng)

        children = [
            draw_feasible(crossover_child)
            for _ in range(cfg.population // 2 - cfg.elites)
        ]
        children += [draw_feasible(mutation_child) for _ in range(cfg.population // 2)]
        population = elites + children

        new_unique = score_population()
        if new_unique == 0 and spent() < cfg.eval_budget:
            for _ in range(cfg.population):
                if spent() >= cfg.eval_budget:
                    break
                probe = draw_feasible(random_genome)
                fitness = score(probe)
                if fitness is not None:
                    consider(probe, fitness)

    if best_genome is None:
        raise InfeasibleError(
            "evaluation budget allowed no population member to be scored"
        )
    return ShrinkResult(
        best_genome=best_genome,
        best_fitness=best_fitness,
        best_cost=oracle.cost(best_genome),
        history=tuple(history),
        oracle_calls=spent(),
        generations_run=generations_run,
        rg_table=table if cfg.mutation == MUTATION_DIRECTIONAL else None,
    )


def _require_feasible_floor(
    oracle: FitnessOracle, fallback: ArchitectureGenome, cfg: EvoConfig
) -> None:
    """The narrowest configuration must fit, or nothing does."""
    cost = oracle.cost(fallback)
    if satisfies_constraints(cost, cfg.params_limit, cfg.flops_limit):
        return
    params_ratio = cost.params / cfg.params_limit
    flops_ratio = cost.flops / cfg.flops_limit
    if params_ratio >= flops_ratio:
        tightest = f"params limit {cfg.params_limit} (narrowest needs {cost.params})"
    else:
        tightest = f"flops limit {cfg.flops_limit} (narrowest needs {cost.flops})"
    raise InfeasibleError(
        f"no feasible channel configuration: tightest constraint is the {tightest}"
    )


def _refresh_if_affordable(
    elite: ArchitectureGenome, oracle: FitnessOracle, cfg: EvoConfig, spent: int
) -> RGTable | None:
    """Recompute gains only when the whole table fits in the budget."""
    spec = oracle.spec
    num_layers = spec.paths[elite.path_index].num_layers
    pending = 0
    for l in range(num_layers):
        for j in range(spec.num_channel_choices):
            if j == elite.channel_assignment[l]:
                continue
            if not oracle.cached(_with_channel(elite, l, j)):
                pending += 1
    if spent + pending > cfg.eval_budget:
        return None
    return compute_rg(elite, oracle, cfg.epsilon)
