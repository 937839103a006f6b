"""Stage-by-stage narrowing and the full search driver."""

import numpy as np
import pytest

from cfsearch.configs import default_config
from cfsearch.costs import genome_cost
from cfsearch.errors import ConfigError, InfeasibleError
from cfsearch.evolution import EvoConfig
from cfsearch.oracles import (
    FitnessOracle,
    TabularLandscape,
    TabularOracle,
    build_landscape,
    shipped_landscape,
)
from cfsearch.pipeline import (
    joint_search_baseline,
    run_pipeline,
    run_search,
    search_operators,
    search_path,
)
from cfsearch.space import (
    ArchitectureGenome,
    enumerate_genomes,
    genome_space_size,
    operator_specialization_count,
)

from conftest import build_spec, tiny_spec_dict


class ScriptedOracle(FitnessOracle):
    """Oracle with hand-set path scores and table-driven genome fitness."""

    def __init__(self, spec, path_scores, table=None):
        super().__init__(spec)
        self.scores = path_scores
        self.table = table or {}

    def _fitness(self, genome):
        return self.table.get(genome.to_record(), 0.0)

    def _path_fitness(self, path_index):
        return self.scores[path_index]


def test_path_stage_breaks_ties_to_lowest_index():
    spec = build_spec(n_paths=4)
    oracle = ScriptedOracle(spec, path_scores=(1.0, 3.0, 2.0, 3.0))
    chosen, records = search_path(oracle)
    assert chosen == 1
    assert [r.label for r in records] == ["path:0", "path:1", "path:2", "path:3"]
    assert [r.fitness for r in records] == [1.0, 3.0, 2.0, 3.0]


def test_operator_stage_scores_every_member_once_for_two_operators():
    spec = build_spec(n_paths=1, n_layers=2, n_operators=2, channels=(2, 3))
    scape = build_landscape(spec, "random_seeded", seed=14)
    oracle = TabularOracle(scape)
    best_ops, records = search_operators(oracle, 0)
    # 2 specializations of 2 members each: all 4 assignments, each once.
    assert len(records) == 2 * operator_specialization_count(2, 2)
    assert len({r.label for r in records}) == 4
    top = spec.num_channel_choices - 1
    expected = max(
        ((a, b) for a in range(2) for b in range(2)),
        key=lambda ops: scape.fitness(
            ArchitectureGenome(0, ops, (top, top))
        ),
    )
    assert best_ops == expected


def test_operator_stage_tie_breaks_lexicographically():
    spec = build_spec(n_paths=1, n_layers=2, n_operators=2, channels=(2, 3))
    table = {g.to_record(): 1.0 for g in enumerate_genomes(spec)}
    scape = TabularLandscape(spec=spec, rule="random_seeded", seed=0, table=table)
    best_ops, _ = search_operators(TabularOracle(scape), 0)
    assert best_ops == (0, 0)


def test_operator_stage_sampling_needs_rng():
    spec = build_spec(n_paths=1, n_layers=2, n_operators=2, channels=(2, 3))
    oracle = TabularOracle(build_landscape(spec, "random_seeded", seed=3))
    with pytest.raises(ConfigError):
        search_operators(oracle, 0, sample_count=1)
    _, records = search_operators(oracle, 0, sample_count=1, rng=np.random.default_rng(0))
    assert len(records) == 2  # one specialization of two members


def test_run_search_call_accounting():
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3, 4))
    oracle = TabularOracle(build_landscape(spec, "separable", seed=30))
    cfg = EvoConfig(population=6, elites=2, generations=8, eval_budget=20)
    genome, trace, shrink = run_search(oracle, cfg, np.random.default_rng(1))
    assert trace.chosen_path is not None
    assert trace.oracle_calls["path"] == 2
    assert trace.oracle_calls["operator"] == 2 * operator_specialization_count(2, 2)
    assert trace.oracle_calls["channel"] == len(trace.channel_records)
    assert trace.total_oracle_calls == sum(trace.oracle_calls.values())
    assert trace.g_channel == genome.to_record()
    assert trace.g_optr is not None
    # The channel stage count is the number of unique new evaluations.
    assert trace.oracle_calls["channel"] <= cfg.eval_budget
    assert shrink.best_genome == genome


def test_run_search_finds_separable_optimum():
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3))
    scape = build_landscape(spec, "separable", seed=31)
    oracle = TabularOracle(scape)
    cfg = EvoConfig(population=6, elites=2, generations=10, eval_budget=30)
    genome, trace, _ = run_search(oracle, cfg, np.random.default_rng(4))
    best = joint_search_baseline(TabularOracle(scape))
    # Separable landscapes make coordinate-wise search exact, and the small
    # space gives the channel stage room to finish the job.
    assert scape.fitness(genome) == pytest.approx(best.fitness)
    assert genome == best.genome


def test_run_search_reproducible_for_a_seed():
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3, 4))
    cfg = EvoConfig(population=6, elites=2, generations=6, eval_budget=18)

    def once():
        oracle = TabularOracle(build_landscape(spec, "random_seeded", seed=32))
        return run_search(oracle, cfg, np.random.default_rng(8))

    g1, t1, s1 = once()
    g2, t2, s2 = once()
    assert g1 == g2
    assert t1.channel_records == t2.channel_records
    assert s1.history == s2.history


def test_joint_baseline_scans_everything():
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3))
    scape = build_landscape(spec, "random_seeded", seed=33)
    oracle = TabularOracle(scape)
    joint = joint_search_baseline(oracle)
    assert joint.evaluations == genome_space_size(spec) == 32
    assert oracle.genome_evaluations == 32
    assert (joint.genome, joint.fitness, joint.feasible) == brute_force_ranking(
        scape, float("inf"), float("inf")
    )


def brute_force_ranking(scape, params_limit, flops_limit):
    """The scan's result by a plain loop: (genome, fitness, feasible), or its error text."""
    costs = [(g, genome_cost(scape.spec, g)) for g in enumerate_genomes(scape.spec)]
    feasible = [g for g, c in costs if c.params < params_limit and c.flops < flops_limit]
    if feasible:
        best = max(feasible, key=scape.fitness)
        ranking = tuple(sorted(map(scape.fitness, feasible), reverse=True))
        return best, scape.fitness(best), ranking
    if all(c.params >= params_limit for _, c in costs):
        return f"no genome satisfies the params limit {params_limit}"
    if all(c.flops >= flops_limit for _, c in costs):
        return f"no genome satisfies the flops limit {flops_limit}"
    joint = f"joint constraint (params < {params_limit}, flops < {flops_limit})"
    return f"no genome satisfies the {joint}"


# Each limit is picked from the sorted distinct costs of its axis.  All but
# "above-median" and "none" sit on some genome's cost, which a strict
# limit excludes; nothing is strictly below "min".
LIMIT_PICKS = {
    "min": lambda values: values[0],
    "second": lambda values: values[1],
    "median": lambda values: values[len(values) // 2],
    "above-median": lambda values: values[len(values) // 2] + 1,
    "none": lambda values: float("inf"),
}
LIMIT_PAIRS = [
    ("min", "none"),
    ("none", "min"),
    ("min", "min"),
    ("second", "none"),
    ("median", "median"),
    ("above-median", "median"),
    ("median", "above-median"),
    ("none", "none"),
]


@pytest.mark.parametrize("name", ["separable", "monotone_plateau", "deceptive", "evolution_bench"])
@pytest.mark.parametrize(
    "params_pick, flops_pick", LIMIT_PAIRS, ids=[f"{p}-{f}" for p, f in LIMIT_PAIRS]
)
def test_joint_baseline_matches_a_brute_force_scan(name, params_pick, flops_pick):
    scape = shipped_landscape(name)
    costs = [genome_cost(scape.spec, g) for g in enumerate_genomes(scape.spec)]
    params_limit = LIMIT_PICKS[params_pick](sorted({c.params for c in costs}))
    flops_limit = LIMIT_PICKS[flops_pick](sorted({c.flops for c in costs}))
    expected = brute_force_ranking(scape, params_limit, flops_limit)
    oracle = TabularOracle(scape)
    if isinstance(expected, str):
        with pytest.raises(InfeasibleError) as caught:
            joint_search_baseline(oracle, params_limit, flops_limit)
        assert str(caught.value) == expected
    else:
        joint = joint_search_baseline(oracle, params_limit, flops_limit)
        assert (joint.genome, joint.fitness, joint.feasible) == expected


def test_percentile_and_gap_rank_against_the_feasible_genomes():
    spec = build_spec(n_paths=1, n_layers=1, n_operators=2, channels=(2, 3))
    records = [g.to_record() for g in enumerate_genomes(spec)]

    def ranking(*values):
        table = dict(zip(records, values, strict=True))
        scape = TabularLandscape(spec, "random_seeded", 0, table)
        return joint_search_baseline(TabularOracle(scape))

    joint = ranking(0.5, 2.0, 0.25, 1.0)
    assert joint.feasible == (2.0, 1.0, 0.5, 0.25)
    assert joint.percentile(joint.fitness) == 1.0
    assert joint.gap(joint.fitness) == 0.0
    assert joint.percentile(0.25) == 1 / len(joint.feasible)
    assert joint.gap(0.25) == 1.75
    # Ties count as "at most": both 1.0 genomes and the 0.5 one are at most 1.0.
    tied = ranking(1.0, 2.0, 0.5, 1.0)
    assert tied.percentile(1.0) == 3 / 4
    assert tied.percentile(0.5) == 1 / 4


def test_joint_baseline_respects_cap_and_constraints():
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3))
    oracle = TabularOracle(build_landscape(spec, "random_seeded", seed=34))
    with pytest.raises(ConfigError):
        joint_search_baseline(oracle, cap=10)
    with pytest.raises(InfeasibleError):
        joint_search_baseline(oracle, params_limit=1)


def fast_pipeline_config():
    config = default_config()
    config["dataset"]["samples"] = 32
    config["train"]["epochs"] = 2
    config["train"]["batch_size"] = 4
    config["search"]["finetune_epochs"] = 2
    config["evolution"].update(
        {"population": 4, "elites": 1, "generations": 3, "eval_budget": 8}
    )
    return config


def test_run_pipeline_end_to_end_smoke():
    config = fast_pipeline_config()
    result = run_pipeline(config)
    assert result.genome.to_record() == result.trace.g_channel
    assert np.isfinite(result.searched_fitness)
    assert np.isfinite(result.final_fitness)
    assert result.pretrain.ledger.is_fair()
    assert result.trace.total_oracle_calls == sum(result.trace.oracle_calls.values())
    assert len(result.finetune_metrics) == 2
    # The configured constraints carried through to the returned genome.
    assert result.shrink.best_cost.params < config["evolution"]["params_limit"]
    assert result.shrink.best_cost.flops < config["evolution"]["flops_limit"]


def test_run_pipeline_deterministic():
    config = fast_pipeline_config()
    a = run_pipeline(config)
    b = run_pipeline(config)
    assert a.genome == b.genome
    assert a.searched_fitness == b.searched_fitness
    assert a.final_fitness == b.final_fitness
