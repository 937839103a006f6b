"""Fitness oracles: tabular landscapes, caching, exhaustive baselines."""

import numpy as np
import pytest

from cfsearch.configs import default_toy_spec, evolution_bench_spec
from cfsearch.errors import ConfigError, InfeasibleError, InvariantError
from cfsearch.oracles import (
    LANDSCAPE_RULES,
    SHIPPED_LANDSCAPE_SEEDS,
    GanOracle,
    TabularLandscape,
    TabularOracle,
    build_landscape,
    exhaustive_optimum,
    export_landscape,
    feasible_fitness_values,
    load_landscape,
    shipped_landscape,
)
from cfsearch.space import (
    ArchitectureGenome,
    enumerate_genomes,
    genome_space_size,
    maximal_genome,
)
from cfsearch.trainer import TASK_TRANSLATION, TrainConfig, evaluate_genome, make_dataset, pretrain_supernet

from conftest import build_spec


def landscape_spec():
    return build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3, 4))


def test_landscapes_cover_the_space_deterministically():
    spec = landscape_spec()
    for rule in LANDSCAPE_RULES:
        a = build_landscape(spec, rule, seed=5)
        b = build_landscape(spec, rule, seed=5)
        assert a.table == b.table
        assert a.size() == genome_space_size(spec)
        assert set(a.table) == {g.to_record() for g in enumerate_genomes(spec)}
        different = build_landscape(spec, rule, seed=6)
        assert a.table != different.table


def test_unknown_rule_rejected():
    with pytest.raises(ConfigError):
        build_landscape(landscape_spec(), "volcanic", seed=0)


def test_separable_optimum_composes_dimension_argmaxes():
    spec = landscape_spec()
    scape = build_landscape(spec, "separable", seed=9)
    best = exhaustive_optimum(scape)
    g = best.genome
    # Improving any single coordinate away from the argmax cannot help.
    for l in range(2):
        for c in range(spec.num_channel_choices):
            probe = ArchitectureGenome(
                g.path_index,
                g.operator_assignment,
                tuple(c if i == l else v for i, v in enumerate(g.channel_assignment)),
                g.recursion_assignment,
            )
            assert scape.fitness(probe) <= best.fitness


def test_monotone_plateau_shape():
    spec = build_spec(n_paths=1, n_layers=2, n_operators=1, channels=(2, 3, 4))
    scape = build_landscape(spec, "monotone_plateau", seed=3)

    def fit(ch):
        return scape.fitness(ArchitectureGenome(0, (0, 0), ch))

    assert fit((1, 0)) > fit((0, 0))
    assert fit((0, 1)) > fit((0, 0))
    # The top two choices tie: the plateau hides the true width boundary.
    assert fit((2, 0)) == pytest.approx(fit((1, 0)))
    assert fit((2, 2)) == pytest.approx(fit((1, 1)))


def test_deceptive_landscape_classes():
    spec = build_spec(n_paths=1, n_layers=2, n_operators=1, channels=(2, 3, 4))
    scape = build_landscape(spec, "deceptive", seed=4)

    def fit(ch):
        return scape.fitness(ArchitectureGenome(0, (0, 0), ch))

    assert fit((2, 2)) == pytest.approx(1.0, abs=0.006)
    assert fit((0, 0)) == pytest.approx(0.93, abs=0.006)
    assert fit((0, 2)) == pytest.approx(0.45, abs=0.006)
    assert fit((1, 1)) == pytest.approx(0.45, abs=0.006)
    assert fit((2, 2)) > fit((0, 0)) > fit((0, 2))


def test_oracle_caches_genome_evaluations():
    spec = landscape_spec()
    oracle = TabularOracle(build_landscape(spec, "random_seeded", seed=1))
    g = ArchitectureGenome(0, (0, 1), (1, 2))
    assert not oracle.cached(g)
    first = oracle.evaluate(g)
    second = oracle.evaluate(g)
    assert first == second
    assert oracle.cached(g)
    assert oracle.genome_evaluations == 1
    assert oracle.lookups == 2
    other = ArchitectureGenome(1, (0, 1), (1, 2))
    oracle.evaluate(other)
    assert oracle.genome_evaluations == 2
    snapshot = oracle.cache_snapshot()
    assert [record for record, _ in snapshot] == [g.to_record(), other.to_record()]
    assert snapshot[0][1] == first


def test_oracle_cost_matches_cost_module():
    from cfsearch.costs import genome_cost

    spec = landscape_spec()
    oracle = TabularOracle(build_landscape(spec, "separable", seed=1))
    g = maximal_genome(spec, 0)
    assert oracle.cost(g).params == genome_cost(spec, g).params
    assert oracle.evaluate(g).cost.flops == genome_cost(spec, g).flops


def test_path_scores_average_operator_members():
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3))
    scape = build_landscape(spec, "random_seeded", seed=8)
    oracle = TabularOracle(scape)
    score = oracle.path_score(0)
    top = spec.num_channel_choices - 1
    manual = np.mean(
        [
            scape.fitness(ArchitectureGenome(0, (a, b), (top, top)))
            for a in range(2)
            for b in range(2)
        ]
    )
    assert score == pytest.approx(manual)
    assert oracle.path_evaluations == 1
    assert oracle.genome_evaluations == 0
    oracle.path_score(0)
    assert oracle.path_evaluations == 1


def test_exhaustive_optimum_first_max_tie_break():
    spec = build_spec(n_paths=1, n_layers=1, n_operators=2, channels=(2, 3))
    genomes = list(enumerate_genomes(spec))
    table = {g.to_record(): 1.0 for g in genomes}
    scape = TabularLandscape(spec=spec, rule="random_seeded", seed=0, table=table)
    best = exhaustive_optimum(scape)
    assert best.genome == genomes[0]
    assert best.genome.sort_key() == min(g.sort_key() for g in genomes)


def test_exhaustive_optimum_respects_constraints():
    spec = landscape_spec()
    scape = build_landscape(spec, "separable", seed=2)
    free = exhaustive_optimum(scape)
    capped = exhaustive_optimum(scape, params_limit=free.cost.params, flops_limit=10**9)
    assert capped.cost.params < free.cost.params
    assert capped.fitness <= free.fitness


def test_infeasible_constraints_name_the_culprit():
    spec = landscape_spec()
    scape = build_landscape(spec, "separable", seed=2)
    with pytest.raises(InfeasibleError, match="params limit"):
        exhaustive_optimum(scape, params_limit=1)
    with pytest.raises(InfeasibleError, match="flops limit"):
        exhaustive_optimum(scape, flops_limit=1)


def test_feasible_fitness_values_descending():
    spec = landscape_spec()
    scape = build_landscape(spec, "random_seeded", seed=3)
    values = feasible_fitness_values(scape, params_limit=10**9, flops_limit=10**9)
    assert len(values) == scape.size()
    assert values == sorted(values, reverse=True)
    fewer = feasible_fitness_values(scape, params_limit=300, flops_limit=10**9)
    assert len(fewer) < len(values)


def test_export_import_round_trip(tmp_path):
    spec = landscape_spec()
    scape = build_landscape(spec, "random_seeded", seed=12)
    path = tmp_path / "scape.tsv"
    export_landscape(scape, str(path))
    restored = load_landscape(spec, str(path))
    assert restored.table == scape.table


def test_shipped_landscapes():
    toy_size = genome_space_size(default_toy_spec())
    for name in ("separable", "monotone_plateau", "deceptive"):
        scape = shipped_landscape(name)
        assert scape.size() == toy_size
        assert scape.seed == SHIPPED_LANDSCAPE_SEEDS[name]
    bench = shipped_landscape("evolution_bench")
    assert bench.size() == genome_space_size(evolution_bench_spec()) == 256
    with pytest.raises(ConfigError):
        shipped_landscape("imaginary")


def test_gan_oracle_agrees_with_direct_evaluation():
    spec = build_spec(
        n_paths=1, n_layers=2, n_operators=2, channels=(2, 3),
        input_sites=1, input_channels=2,
    )
    ds = make_dataset(TASK_TRANSLATION, samples=20, val_fraction=0.25, seed=2)
    pre = pretrain_supernet(spec, ds, TrainConfig(epochs=2, batch_size=4), seed=2)
    oracle = GanOracle(pre.weights, ds)
    g = ArchitectureGenome(0, (0, 1), (1, 0))
    result = oracle.evaluate(g)
    assert result.fitness == pytest.approx(evaluate_genome(pre.weights, g, ds))
    assert oracle.genome_evaluations == 1
    assert oracle.path_score(0) == oracle.path_score(0)
    assert oracle.path_evaluations == 1


def test_non_finite_fitness_is_rejected_before_caching():
    landscape = build_landscape(landscape_spec(), "separable", seed=0)
    genome = maximal_genome(landscape.spec, 0)
    landscape.table[genome.to_record()] = float("nan")
    oracle = TabularOracle(landscape)
    with pytest.raises(InvariantError, match=f"genome {genome.to_record()}"):
        oracle.evaluate(genome)
    assert oracle.genome_evaluations == 0
    with pytest.raises(InvariantError, match="path 0"):
        oracle.path_score(0)
    assert oracle.path_evaluations == 0
