"""Replacement gains, mutation operators, and the shrinking loop."""

import numpy as np
import pytest

from cfsearch.configs import MUTATION_RANDOM, RG_REFRESH_ONCE
from cfsearch.errors import ConfigError, GenomeError, InfeasibleError
from cfsearch.evolution import (
    EvoConfig,
    RGTable,
    compute_rg,
    crossover,
    mutate_directional,
    mutate_random,
    normalize_rg,
    shrink_channels,
)
from cfsearch.oracles import TabularOracle, build_landscape, shipped_landscape
from cfsearch.pipeline import joint_search_baseline
from cfsearch.space import ArchitectureGenome

from conftest import build_spec

# The limits of an ``EvoConfig`` default to the run's; these searches run unconstrained.
NO_LIMITS = dict(params_limit=float("inf"), flops_limit=float("inf"))


def make_oracle(rule="random_seeded", seed=1, **spec_kwargs):
    kwargs = dict(n_paths=1, n_layers=3, n_operators=1, channels=(2, 3, 4))
    kwargs.update(spec_kwargs)
    spec = build_spec(**kwargs)
    return spec, TabularOracle(build_landscape(spec, rule, seed))


def test_config_validation():
    EvoConfig()
    with pytest.raises(ConfigError):
        EvoConfig(population=5)  # must be even
    with pytest.raises(ConfigError):
        EvoConfig(population=2, elites=2)  # elites capped at half
    with pytest.raises(ConfigError):
        EvoConfig(elites=0)
    with pytest.raises(ConfigError):
        EvoConfig(generations=0)
    with pytest.raises(ConfigError):
        EvoConfig(eval_budget=0)
    with pytest.raises(ConfigError):
        EvoConfig(mutation="sideways")
    with pytest.raises(ConfigError):
        EvoConfig(rg_refresh="never")


def test_config_from_mapping_rejects_unknown_keys():
    cfg = EvoConfig.from_mapping({"population": 6, "elites": 2})
    assert cfg.population == 6
    with pytest.raises(ConfigError):
        EvoConfig.from_mapping({"population": 6, "elitism": 2})


def test_rg_own_choice_is_exactly_zero_without_a_call():
    spec, oracle = make_oracle()
    baseline = ArchitectureGenome(0, (0, 0, 0), (1, 0, 2))
    table = compute_rg(baseline, oracle)
    assert table.rg.shape == (3, 3)
    for l, own in enumerate(baseline.channel_assignment):
        assert table.rg[own, l] == 0.0
    # One baseline call plus (choices - 1) per layer.
    assert oracle.genome_evaluations == 1 + 2 * 3


def test_rg_values_are_single_replacement_gains():
    spec, oracle = make_oracle()
    baseline = ArchitectureGenome(0, (0, 0, 0), (0, 0, 0))
    table = compute_rg(baseline, oracle)
    base_fit = oracle.evaluate(baseline).fitness
    probe = ArchitectureGenome(0, (0, 0, 0), (0, 2, 0))
    assert table.rg[2, 1] == pytest.approx(
        oracle.evaluate(probe).fitness - base_fit
    )


def test_normalize_rg_hand_example():
    rg = np.array([[0.1], [0.4], [0.3]])
    table = normalize_rg(RGTable(rg=rg))
    assert np.allclose(table.p_select[:, 0], [2e-8, 0.6, 0.4], atol=1e-7)
    assert table.p_select[:, 0].sum() == pytest.approx(1.0)
    assert np.all(table.p_select > 0)


def test_normalize_rg_flat_column_is_uniform():
    table = normalize_rg(RGTable(rg=np.zeros((4, 2))))
    assert np.allclose(table.p_select, 0.25)


def test_normalize_rg_single_choice():
    table = normalize_rg(RGTable(rg=np.zeros((1, 3))))
    assert np.allclose(table.p_select, 1.0)


def test_directional_mutation_follows_the_table():
    spec = build_spec(n_paths=1, n_layers=2, n_operators=1, channels=(2, 3, 4))
    rg = np.array([[0.0, 0.0], [0.3, 0.0], [0.1, 0.0]])
    table = normalize_rg(RGTable(rg=rg))
    parent = ArchitectureGenome(0, (0, 0), (0, 0))
    rng = np.random.default_rng(0)
    draws = 20_000
    layer_counts = np.zeros(2)
    choice_counts = np.zeros(3)
    for _ in range(draws):
        child = mutate_directional(parent, table, spec, rng)
        changed = [
            l for l in range(2)
            if child.channel_assignment[l] != parent.channel_assignment[l]
        ]
        assert len(changed) <= 1
        if child.channel_assignment != parent.channel_assignment:
            layer = changed[0]
        else:
            layer = None
        # Track the layer-0 channel distribution conditionally.
        if layer == 0:
            layer_counts[0] += 1
            choice_counts[child.channel_assignment[0]] += 1
        elif layer == 1:
            layer_counts[1] += 1
    # Layer 1's flat column redraws uniformly, so 2/3 of its draws keep the
    # parent's channel invisible to the change detector; layer 0 shows a
    # change with probability 1 - p_select[0, 0] which is nearly 1.
    p0 = table.p_select[:, 0]
    expected_visible_0 = 0.5 * (1 - p0[0])
    sigma = np.sqrt(expected_visible_0 * (1 - expected_visible_0) / draws)
    assert abs(layer_counts[0] / draws - expected_visible_0) < 3 * sigma
    # Conditional on a visible layer-0 change the channel follows the table.
    visible = choice_counts[1] + choice_counts[2]
    for c in (1, 2):
        expected = p0[c] / (p0[1] + p0[2])
        sigma_c = np.sqrt(expected * (1 - expected) / visible)
        assert abs(choice_counts[c] / visible - expected) < 3 * sigma_c


def test_a_directional_draw_is_generator_choice_on_the_table():
    """Each draw picks what ``Generator.choice(len(p), p=p)`` picks and uses the same state."""
    tables = [np.zeros((3, 2)), np.zeros((1, 4))]  # uniform, and a single choice per layer
    source = np.random.default_rng(11)
    for _ in range(1_000):
        choices, layers = int(source.integers(1, 6)), int(source.integers(1, 5))
        rg = source.normal(size=(choices, layers)) * 10.0 ** source.integers(-6, 3)
        rg[source.random(rg.shape) < 0.3] = 0.0  # ties, and some flat layers
        tables.append(rg)
    specs = {}
    for i, rg in enumerate(tables):
        choices, layers = rg.shape
        if rg.shape not in specs:
            widths = tuple(range(2, 2 + choices))
            specs[rg.shape] = build_spec(n_paths=1, n_layers=layers, n_operators=1, channels=widths)
        table = normalize_rg(RGTable(rg=rg))
        parent = ArchitectureGenome(0, (0,) * layers, (0,) * layers)
        drawn, reference = np.random.default_rng(i), np.random.default_rng(i)
        for _ in range(8):
            child = mutate_directional(parent, table, specs[rg.shape], drawn)
            layer = int(reference.integers(layers))
            p = table.p_select[:, layer]
            assert np.array_equal(table.cdf[layer], p.cumsum() / p.cumsum()[-1])
            expected = list(parent.channel_assignment)
            expected[layer] = int(reference.choice(len(p), p=p))
            assert child.channel_assignment == tuple(expected)
            assert drawn.random() == reference.random()


def test_random_mutation_is_uniform():
    spec = build_spec(n_paths=1, n_layers=1, n_operators=1, channels=(2, 3, 4))
    parent = ArchitectureGenome(0, (0,), (0,))
    rng = np.random.default_rng(1)
    counts = np.zeros(3)
    draws = 9_000
    for _ in range(draws):
        child = mutate_random(parent, spec, rng)
        counts[child.channel_assignment[0]] += 1
    sigma = np.sqrt((1 / 3) * (2 / 3) / draws)
    for c in range(3):
        assert abs(counts[c] / draws - 1 / 3) < 3 * sigma


def test_crossover_identical_parents_is_identity():
    parent = ArchitectureGenome(0, (0, 1), (2, 0))
    child = crossover(parent, parent, np.random.default_rng(3))
    assert child == parent


def test_crossover_mixes_whole_layer_pairs():
    a = ArchitectureGenome(0, (0, 0), (0, 0))
    b = ArchitectureGenome(0, (0, 0), (1, 1))
    rng = np.random.default_rng(4)
    took_from_a = 0
    draws = 10_000
    for _ in range(draws):
        child = crossover(a, b, rng)
        assert set(child.channel_assignment) <= {0, 1}
        took_from_a += child.channel_assignment.count(0)
    frac = took_from_a / (2 * draws)
    sigma = np.sqrt(0.25 / (2 * draws))
    assert abs(frac - 0.5) < 3 * sigma


def test_crossover_requires_matching_path_and_operators():
    a = ArchitectureGenome(0, (0, 0), (0, 0))
    with pytest.raises(GenomeError):
        crossover(a, ArchitectureGenome(1, (0, 0), (0, 0)), np.random.default_rng(0))
    with pytest.raises(GenomeError):
        crossover(a, ArchitectureGenome(0, (0, 1), (0, 0)), np.random.default_rng(0))


def bench_oracle():
    return TabularOracle(shipped_landscape("evolution_bench"))


def test_shrink_best_is_monotone_and_feasible():
    oracle = bench_oracle()
    base = ArchitectureGenome(0, (0, 0, 0, 0), (3, 3, 3, 3))
    cfg = EvoConfig(population=8, elites=2, generations=10, eval_budget=30, **NO_LIMITS)
    result = shrink_channels(base, oracle, cfg, np.random.default_rng(5))
    bests = [row.best_fitness for row in result.history]
    assert all(a <= b for a, b in zip(bests, bests[1:]))
    assert result.best_fitness == bests[-1]
    assert result.oracle_calls <= cfg.eval_budget
    assert oracle.genome_evaluations <= cfg.eval_budget
    assert result.best_fitness == oracle.evaluate(result.best_genome).fitness
    for row in result.history:
        assert 0.0 <= row.feasible_fraction <= 1.0
        assert row.mean_fitness <= row.best_fitness + 1e-12


def test_shrink_respects_cost_constraints():
    oracle = bench_oracle()
    base = ArchitectureGenome(0, (0, 0, 0, 0), (3, 3, 3, 3))
    cfg = EvoConfig(
        population=8, elites=2, generations=8, eval_budget=30,
        params_limit=1272, flops_limit=9792,
    )
    result = shrink_channels(base, oracle, cfg, np.random.default_rng(6))
    assert result.best_cost.params < cfg.params_limit
    assert result.best_cost.flops < cfg.flops_limit


def test_shrink_is_deterministic_under_seed():
    base = ArchitectureGenome(0, (0, 0, 0, 0), (3, 3, 3, 3))
    cfg = EvoConfig(population=8, elites=2, generations=6, eval_budget=25, **NO_LIMITS)
    r1 = shrink_channels(base, bench_oracle(), cfg, np.random.default_rng(9))
    r2 = shrink_channels(base, bench_oracle(), cfg, np.random.default_rng(9))
    assert r1.best_genome == r2.best_genome
    assert r1.history == r2.history
    r3 = shrink_channels(base, bench_oracle(), EvoConfig(
        population=8, elites=2, generations=6, eval_budget=25, **NO_LIMITS,
    ), np.random.default_rng(10))
    assert r3.history != r1.history or r3.best_genome == r1.best_genome


def test_shrink_random_mode_and_one_shot_refresh():
    base = ArchitectureGenome(0, (0, 0, 0, 0), (3, 3, 3, 3))
    random_cfg = EvoConfig(
        population=8, elites=2, generations=6, eval_budget=25,
        mutation=MUTATION_RANDOM, **NO_LIMITS,
    )
    result = shrink_channels(base, bench_oracle(), random_cfg, np.random.default_rng(3))
    assert result.rg_table is None
    once_cfg = EvoConfig(
        population=8, elites=2, generations=6, eval_budget=25,
        rg_refresh=RG_REFRESH_ONCE, **NO_LIMITS,
    )
    with_rg = shrink_channels(base, bench_oracle(), once_cfg, np.random.default_rng(3))
    assert with_rg.rg_table is not None


def test_shrink_infeasible_space_raises_with_constraint_name():
    oracle = bench_oracle()
    base = ArchitectureGenome(0, (0, 0, 0, 0), (3, 3, 3, 3))
    cfg = EvoConfig(population=8, elites=2, generations=4, eval_budget=20, params_limit=1)
    with pytest.raises(InfeasibleError, match="params"):
        shrink_channels(base, oracle, cfg, np.random.default_rng(0))


def test_shrink_finds_constrained_optimum_on_small_space():
    # 2 channel choices over 2 layers: 4 genomes; with a healthy budget the
    # loop must return the exhaustive feasible optimum.
    spec = build_spec(n_paths=1, n_layers=2, n_operators=1, channels=(2, 3))
    scape = build_landscape(spec, "random_seeded", seed=21)
    oracle = TabularOracle(scape)
    base = ArchitectureGenome(0, (0, 0), (1, 1))
    cfg = EvoConfig(population=4, elites=1, generations=6, eval_budget=10)
    result = shrink_channels(base, oracle, cfg, np.random.default_rng(2))
    best = joint_search_baseline(TabularOracle(scape))
    assert result.best_genome == best.genome
    assert result.best_fitness == pytest.approx(best.fitness)
