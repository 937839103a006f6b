"""Evolutionary channel shrinking with gain-directed mutation.

The channel stage keeps a small population of channel assignments over
a fixed path and operator choice, ranks them by oracle fitness under
parameter and FLOP budgets, and breeds each generation from the elites:
part of it by per-layer crossover, half by mutating a single layer.
Mutation is *directional*: the replacement channel is drawn with
probability proportional to the normalized replacement gain of that
width at that layer, measured against the current best elite.  Each
table refresh also builds every layer's normalized cumulative
distribution, and a draw is ``cdf.searchsorted(rng.random(), side="right")``
on it: the steps ``Generator.choice(n, p=p)`` takes after checking and
summing ``p`` again, so each draw equals ``choice``'s and leaves the
generator in the same state.

Oracle accounting is in unique genomes.  Re-scoring a cached genome is
free, so the evaluation budget bounds exactly how many new genomes the
stage may touch, independent of population size or generation count.
When a whole generation produces nothing new and budget remains, the
loop spends it on seeded random feasible probes instead of stalling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .configs import CONFIG_KEYS, MUTATION_DIRECTIONAL, RG_REFRESH_ON_ELITE_CHANGE, check_fields
from .configs import section_values
from .costs import CostReport, satisfies_constraints
from .errors import ConfigError, GenomeError, InfeasibleError
from .oracles import FitnessOracle
from .space import ArchitectureGenome, SupernetSpec, minimal_genome, require_valid

# Attempts at drawing a feasible candidate before falling back to the
# narrowest configuration.
FEASIBLE_RETRY_LIMIT = 50

# Added to every shifted gain, so each width keeps positive odds.
RG_EPSILON = 1e-8


@dataclass(frozen=True)
class EvoConfig:
    """Knobs of the channel-shrinking stage.

    The population is split consistently every generation: the top
    ``elites`` survive unchanged, ``population // 2 - elites`` children
    come from crossover among the elites, and ``population // 2`` from
    mutation of the elites, so ``elites <= population // 2`` must hold.
    ``eval_budget`` caps unique oracle evaluations for the whole stage,
    including replacement-gain probes.  Each field's type, range and
    default are its row of ``configs.CONFIG_KEYS``.
    """

    population: int = CONFIG_KEYS["evolution.population"].default
    elites: int = CONFIG_KEYS["evolution.elites"].default
    generations: int = CONFIG_KEYS["evolution.generations"].default
    eval_budget: int = CONFIG_KEYS["evolution.eval_budget"].default
    params_limit: float = CONFIG_KEYS["evolution.params_limit"].default
    flops_limit: float = CONFIG_KEYS["evolution.flops_limit"].default
    mutation: str = CONFIG_KEYS["evolution.mutation"].default
    rg_refresh: str = CONFIG_KEYS["evolution.rg_refresh"].default

    def __post_init__(self) -> None:
        check_fields(self, "evolution")
        if self.elites > self.population // 2:
            raise ConfigError(
                f"evolution.elites must be at most evolution.population // 2 = "
                f"{self.population // 2}, got {self.elites}"
            )

    @staticmethod
    def from_mapping(raw: dict) -> "EvoConfig":
        return EvoConfig(**section_values("evolution", raw))


@dataclass
class RGTable:
    """Replacement gains and the mutation distribution derived from them.

    ``rg[j, l]`` is the fitness delta from replacing layer ``l``'s
    channel choice with index ``j`` on the anchor genome; the anchor's
    own choice scores exactly zero.  ``p_select[:, l]`` is the per-layer
    probability distribution used by directional mutation, and ``cdf[l]``
    its cumulative sum divided by its last entry, as ``Generator.choice``
    computes it.  ``staleness`` counts generations since the table was
    last recomputed.
    """

    rg: np.ndarray
    p_select: np.ndarray = field(default=None)  # type: ignore[assignment]
    cdf: np.ndarray = field(default=None)  # type: ignore[assignment]
    baseline: str = ""
    staleness: int = 0


def compute_rg(baseline: ArchitectureGenome, oracle: FitnessOracle) -> RGTable:
    """Measure the gain of every single-layer channel replacement.

    Entries where the replacement equals the baseline's current choice
    are zero by definition and cost no oracle call; everything else is
    one (cached) evaluation, so a fresh table costs at most
    ``num_choices * num_layers`` minus the baseline's own entries.
    """
    spec = oracle.spec
    require_valid(spec, baseline)
    base_fitness = oracle.evaluate(baseline).fitness
    rg = np.zeros((spec.num_channel_choices, len(baseline.channel_assignment)))
    for l, j, replaced in _replacements(baseline, spec.num_channel_choices):
        rg[j, l] = oracle.evaluate(replaced).fitness - base_fitness
    table = RGTable(rg=rg, baseline=baseline.to_record())
    return normalize_rg(table)


def normalize_rg(table: RGTable) -> RGTable:
    """Shift each layer's gains to be positive and normalize to a pmf.

    Per layer: ``shifted = rg - min_j rg + RG_EPSILON`` guarantees strictly
    positive mass, then ``p_select`` divides by the per-layer sum.  A
    layer whose gains are all equal comes out uniform.  ``cdf`` holds one
    row per layer, so each draw searches a contiguous array.
    """
    shifted = table.rg - table.rg.min(axis=0, keepdims=True) + RG_EPSILON
    table.p_select = shifted / shifted.sum(axis=0, keepdims=True)
    cdf = table.p_select.T.cumsum(axis=1)
    table.cdf = cdf / cdf[:, -1:]
    return table


def _replacements(
    baseline: ArchitectureGenome, num_choices: int
) -> list[tuple[int, int, ArchitectureGenome]]:
    """(layer, choice, genome) of every single-layer channel replacement, layer-major.

    The baseline's own choice at each layer is left out.
    """
    return [
        (l, j, _with_channel(baseline, l, j))
        for l, own in enumerate(baseline.channel_assignment)
        for j in range(num_choices)
        if j != own
    ]


def _with_channel(
    genome: ArchitectureGenome, layer: int, choice: int
) -> ArchitectureGenome:
    channels = list(genome.channel_assignment)
    channels[layer] = choice
    return ArchitectureGenome(genome.path_index, genome.operator_assignment, tuple(channels))


def mutate_directional(
    parent: ArchitectureGenome,
    table: RGTable,
    spec: SupernetSpec,
    rng: np.random.Generator,
) -> ArchitectureGenome:
    """Replace one uniformly chosen layer's channel, biased by gains.

    The new channel index is drawn from the table's per-layer
    distribution through ``table.cdf`` (see the module docstring).  All
    other genes are copied, so the child differs from
    the parent in at most one layer.  Every index is drawn in range, so a
    valid parent, and a table with one row per channel choice, give a
    valid child.
    """
    path = spec.paths[parent.path_index]
    layer = int(rng.integers(path.num_layers))
    choice = int(table.cdf[layer].searchsorted(rng.random(), side="right"))
    return _with_channel(parent, layer, choice)


def mutate_random(
    parent: ArchitectureGenome, spec: SupernetSpec, rng: np.random.Generator
) -> ArchitectureGenome:
    """Undirected counterpart: uniform layer, uniform replacement."""
    path = spec.paths[parent.path_index]
    layer = int(rng.integers(path.num_layers))
    choice = int(rng.integers(spec.num_channel_choices))
    return _with_channel(parent, layer, choice)


def crossover(
    parent_a: ArchitectureGenome,
    parent_b: ArchitectureGenome,
    rng: np.random.Generator,
) -> ArchitectureGenome:
    """Per-layer gene pick between two parents on the same path.

    Each layer takes its channel from one parent, chosen by a fair coin.
    Parents must agree on path and operator assignment.
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
    channels = tuple(
        (parent_a if rng.integers(2) == 0 else parent_b).channel_assignment[l]
        for l in range(len(parent_a.channel_assignment))
    )
    return ArchitectureGenome(parent_a.path_index, parent_a.operator_assignment, channels)


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
    rng: np.random.Generator,
) -> ShrinkResult:
    """Search channel widths under cost constraints.

    ``base_genome`` fixes the path and operator assignment; only its
    channel genes are searched.  The population starts from uniformly
    random feasible draws and every candidate is feasible at birth
    (bounded resampling, then the narrowest configuration as a last
    resort).  Returns the best feasible genome ever evaluated; its
    fitness is non-decreasing over the history by elitism.

    Raises ``InfeasibleError`` when even the narrowest configuration
    violates the constraints, naming the most violated one.
    """
    spec = oracle.spec
    require_valid(spec, base_genome)
    num_layers = spec.paths[base_genome.path_index].num_layers
    num_choices = spec.num_channel_choices

    fallback = replace(
        minimal_genome(spec, base_genome.path_index),
        operator_assignment=base_genome.operator_assignment,
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
        channels = tuple(rng.integers(0, num_choices, size=num_layers).tolist())
        return ArchitectureGenome(
            base_genome.path_index, base_genome.operator_assignment, channels
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
    # A flat table until gains have been measured.
    table = normalize_rg(RGTable(rg=np.zeros((num_choices, num_layers))))
    anchor: ArchitectureGenome | None = None  # the elite the table was measured on
    history: list[GenerationRow] = []

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

    # ``eval_budget`` >= 1, so the first member is scored and the best is set.
    score_population()

    for generation in range(cfg.generations):
        ranked = sorted(
            (
                (member, oracle.evaluate(member).fitness)
                for member in population
                if oracle.cached(member)
            ),
            key=lambda item: (-item[1], item[0].sort_key()),
        )
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
            wants_refresh = anchor is None or (
                cfg.rg_refresh == RG_REFRESH_ON_ELITE_CHANGE and elites[0] != anchor
            )
            if wants_refresh:
                refreshed = _refresh_if_affordable(elites[0], oracle, cfg, spent())
                if refreshed is not None:
                    table, anchor = refreshed, elites[0]
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

    return ShrinkResult(
        best_genome=best_genome,
        best_fitness=best_fitness,
        best_cost=oracle.cost(best_genome),
        history=tuple(history),
        oracle_calls=spent(),
        generations_run=len(history),
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
    replacements = _replacements(elite, oracle.spec.num_channel_choices)
    pending = sum(not oracle.cached(genome) for _, _, genome in replacements)
    if spent + pending > cfg.eval_budget:
        return None
    return compute_rg(elite, oracle)
