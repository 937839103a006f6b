"""Fitness oracles: the shared evaluation interface, tabular landscapes
with known structure, and the adapter over trained supernets.

Every search stage talks to a ``FitnessOracle``: genome in, (fitness,
cost) out, with results cached by genome so accounting can distinguish
lookups from actual evaluations.  The caches are keyed by the
``ArchitectureGenome`` itself, a frozen dataclass of int tuples, so a
lookup hashes four small tuples and formats no record string.  Tabular
landscapes store a fitness for every genome of a small spec and exist so
that search behavior can be verified against exhaustively known optima:
``pipeline.joint_search_baseline`` on a ``TabularOracle`` is the one
exhaustive scan.  The GAN adapter scores genomes on a pretrained supernet
by weight inheritance.  ``TabularLandscape`` tables stay keyed by genome
record.

All landscape rules produce strictly positive fitness, which keeps
"within x percent of the optimum" statements meaningful.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import trainer
from .configs import default_toy_spec, evolution_bench_spec
from .costs import CostReport, genome_cost
from .engine import Tensor
from .errors import ConfigError, InvariantError
from .network import StageTrail, mixed_view
from .space import (
    ArchitectureGenome,
    SupernetSpec,
    enumerate_genomes,
    genome_space_size,
    maximal_genome,
)

LANDSCAPE_SIZE_CAP = 100_000


@dataclass(frozen=True)
class OracleResult:
    fitness: float
    cost: CostReport


class FitnessOracle:
    """Base class: caching, call accounting, and cost delegation.

    ``genome_evaluations`` counts distinct genomes actually scored;
    ``path_evaluations`` counts distinct path-level scores.  Lookups that
    hit the cache are free.  A non-finite score raises ``InvariantError``
    before it is cached, so no stage ever ranks a NaN.  Not thread-safe:
    the caches are plain dictionaries.
    """

    def __init__(self, spec: SupernetSpec):
        self.spec = spec
        self._genome_cache: dict[ArchitectureGenome, OracleResult] = {}
        self._path_cache: dict[int, float] = {}
        self._cost_cache: dict[ArchitectureGenome, CostReport] = {}
        self.lookups = 0

    @property
    def genome_evaluations(self) -> int:
        return len(self._genome_cache)

    @property
    def path_evaluations(self) -> int:
        return len(self._path_cache)

    def cached(self, genome: ArchitectureGenome) -> bool:
        """Whether ``evaluate`` would be a free cache hit."""
        return genome in self._genome_cache

    def cache_snapshot(self, start: int = 0) -> list[tuple[str, OracleResult]]:
        """Cached (record, result) pairs in first-evaluation order, from the ``start``-th on."""
        entries = itertools.islice(self._genome_cache.items(), start, None)
        return [(genome.to_record(), result) for genome, result in entries]

    def evaluate(self, genome: ArchitectureGenome) -> OracleResult:
        self.lookups += 1
        hit = self._genome_cache.get(genome)
        if hit is None:
            fitness = _require_finite(self._fitness(genome), genome)
            hit = OracleResult(fitness=fitness, cost=self.cost(genome))
            self._genome_cache[genome] = hit
        return hit

    def path_score(self, path_index: int) -> float:
        if path_index not in self._path_cache:
            self._path_cache[path_index] = _require_finite(
                self._path_fitness(path_index), f"path {path_index}"
            )
        return self._path_cache[path_index]

    def cost(self, genome: ArchitectureGenome) -> CostReport:
        """``genome_cost``, memoized by genome.

        Only reports are cached, so an invalid genome raises ``GenomeError``
        on every call.
        """
        report = self._cost_cache.get(genome)
        if report is None:
            report = self._cost_cache[genome] = genome_cost(self.spec, genome)
        return report

    def _fitness(self, genome: ArchitectureGenome) -> float:
        raise NotImplementedError

    def _path_fitness(self, path_index: int) -> float:
        raise NotImplementedError


def _require_finite(value: float, what: ArchitectureGenome | str) -> float:
    """``value`` as a float; a genome's record is formatted only when this raises."""
    value = float(value)
    if not math.isfinite(value):
        if isinstance(what, ArchitectureGenome):
            what = f"genome {what.to_record()}"
        raise InvariantError(f"non-finite fitness {value!r} for {what}")
    return value


@dataclass
class TabularLandscape:
    """A complete genome -> fitness table over a small spec."""

    spec: SupernetSpec
    rule: str
    seed: int
    table: dict[str, float]

    def fitness(self, genome: ArchitectureGenome) -> float:
        return self.table[genome.to_record()]

    def size(self) -> int:
        return len(self.table)


LANDSCAPE_RULES = ("separable", "monotone_plateau", "random_seeded", "deceptive")


def build_landscape(spec: SupernetSpec, rule: str, seed: int) -> TabularLandscape:
    """Generate a landscape over every genome of ``spec``.

    Rules:

    * ``separable``: the fitness is a sum of independent per-dimension
      utilities, so the global argmax is the composition of per-dimension
      argmaxes.
    * ``monotone_plateau``: fitness increases with every channel index up
      to a plateau over the top two choices; rewards search that widens
      channels but cannot distinguish the plateau by greed alone.
    * ``random_seeded``: independent uniform fitness per genome.
    * ``deceptive``: a broad local optimum at narrow channels (93 percent
      of the global value) with the global optimum at the widest corner
      and a fitness valley between them.
    """
    if rule not in LANDSCAPE_RULES:
        raise ConfigError(f"unknown landscape rule {rule!r}; known: {LANDSCAPE_RULES}")
    size = genome_space_size(spec)
    if size > LANDSCAPE_SIZE_CAP:
        raise ConfigError(
            f"genome space of {size} entries exceeds the landscape cap "
            f"{LANDSCAPE_SIZE_CAP}"
        )
    rng = np.random.default_rng(seed)
    genomes = list(enumerate_genomes(spec))
    table: dict[str, float] = {}

    if rule == "separable":
        path_util = rng.uniform(0.25, 1.0, size=spec.num_paths)
        op_util = {}
        ch_util = {}
        for p, path in enumerate(spec.paths):
            for l, layer in enumerate(path.layers):
                for o in range(layer.num_operators):
                    op_util[(p, l, o)] = rng.uniform(0.25, 1.0)
                for c in range(spec.num_channel_choices):
                    ch_util[(p, l, c)] = rng.uniform(0.25, 1.0)
        for g in genomes:
            value = path_util[g.path_index]
            for l in range(len(g.operator_assignment)):
                value += op_util[(g.path_index, l, g.operator_assignment[l])]
                value += ch_util[(g.path_index, l, g.channel_assignment[l])]
            table[g.to_record()] = float(value)

    elif rule == "monotone_plateau":
        plateau = max(0, spec.num_channel_choices - 2)
        slopes = {}
        base_util = {}
        for p, path in enumerate(spec.paths):
            for l, layer in enumerate(path.layers):
                slopes[(p, l)] = rng.uniform(0.5, 1.0)
                for o in range(layer.num_operators):
                    base_util[(p, l, o)] = rng.uniform(0.0, 0.1)
        for g in genomes:
            value = 0.5
            for l in range(len(g.channel_assignment)):
                value += slopes[(g.path_index, l)] * min(g.channel_assignment[l], plateau)
                value += base_util[(g.path_index, l, g.operator_assignment[l])]
            table[g.to_record()] = float(value)

    elif rule == "random_seeded":
        draws = rng.uniform(0.1, 1.0, size=len(genomes))
        for g, value in zip(genomes, draws):
            table[g.to_record()] = float(value)

    else:  # deceptive
        jitter = rng.uniform(0.0, 0.005, size=len(genomes))
        top = spec.num_channel_choices - 1
        narrow = max(1, spec.num_channel_choices // 2)
        for g, eps in zip(genomes, jitter):
            channels = g.channel_assignment
            if all(c == top for c in channels):
                base = 1.0
            elif all(c < narrow for c in channels):
                base = 0.93
            else:
                base = 0.45
            table[g.to_record()] = float(base + eps)

    return TabularLandscape(spec=spec, rule=rule, seed=seed, table=table)


class TabularOracle(FitnessOracle):
    """Oracle over a landscape table.

    The path-level score mirrors what full-supernet inference measures
    on a trained supernet: the mean fitness over all operator
    assignments of the path at maximal channels.
    """

    def __init__(self, landscape: TabularLandscape):
        super().__init__(landscape.spec)
        self.landscape = landscape

    def _fitness(self, genome: ArchitectureGenome) -> float:
        try:
            return self.landscape.table[genome.to_record()]
        except KeyError:
            raise ConfigError(
                f"genome {genome.to_record()} is not in the landscape table"
            ) from None

    def _path_fitness(self, path_index: int) -> float:
        path = self.spec.paths[path_index]
        widest = maximal_genome(self.spec, path_index)
        values = [
            self.landscape.table[replace(widest, operator_assignment=ops).to_record()]
            for ops in itertools.product(*(range(layer.num_operators) for layer in path.layers))
        ]
        return float(np.mean(values))


class GanOracle(FitnessOracle):
    """Oracle over a pretrained supernet: weight-inherited evaluation.

    The oracle assumes its weights stay fixed: the fitness cache keeps a
    genome's score, and a ``StageTrail`` keeps the stage outputs of
    recently scored genomes, so that each miss runs only the stages after
    the longest stage prefix it shares with one of them.  Consecutive
    genomes in canonical order share all but their last layer, and the
    channel stage's one-layer edits share all stages before the edited
    layer with the elite they came from.  Scores are bit-identical to a
    trail-free ``trainer.evaluate_genome``.  Path scores use no trail.
    """

    def __init__(self, weights, dataset):
        super().__init__(weights.spec)
        self.weights = weights
        self.dataset = dataset
        self._trail = StageTrail()

    # ``trainer`` functions are looked up on the module at call time, so a
    # wrapper installed on ``trainer`` (as the benchmark's tracer does)
    # sees these calls.
    def _fitness(self, genome: ArchitectureGenome) -> float:
        return trainer.evaluate_genome(self.weights, genome, self.dataset, self._trail)

    def _path_fitness(self, path_index: int) -> float:
        out = mixed_view(self.weights, path_index)(Tensor(self.dataset.val_x)).data
        return trainer.score_outputs(out, self.dataset)


# -- shipped instances -------------------------------------------------------

SHIPPED_LANDSCAPE_SEEDS = {
    "separable": 101,
    "monotone_plateau": 202,
    "deceptive": 303,
    "evolution_bench": 404,
}


def shipped_landscape(name: str) -> TabularLandscape:
    """Named landscapes the verification suite runs against.

    ``separable``, ``monotone_plateau``, and ``deceptive`` cover the
    default toy spec; ``evolution_bench`` is the 256-configuration
    single-path space for channel-search benchmarks (monotone rule).
    """
    if name == "evolution_bench":
        return build_landscape(
            evolution_bench_spec(), "monotone_plateau", SHIPPED_LANDSCAPE_SEEDS[name]
        )
    if name in ("separable", "monotone_plateau", "deceptive"):
        return build_landscape(default_toy_spec(), name, SHIPPED_LANDSCAPE_SEEDS[name])
    raise ConfigError(
        f"unknown shipped landscape {name!r}; known: separable, monotone_plateau, "
        f"deceptive, evolution_bench"
    )

