"""Fitness oracles: tabular landscapes, caching, the exhaustive scan on them."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from cfsearch.cli import load_config
from cfsearch.configs import default_config, default_toy_spec, evolution_bench_spec
from cfsearch import network, oracles, space
from cfsearch.costs import genome_cost
from cfsearch.errors import ConfigError, GenomeError, InfeasibleError, InvariantError
from cfsearch.oracles import (
    LANDSCAPE_RULES,
    SHIPPED_LANDSCAPE_SEEDS,
    GanOracle,
    TabularLandscape,
    TabularOracle,
    build_landscape,
    shipped_landscape,
)
from cfsearch.pipeline import joint_search_baseline, prepare, run_search
from cfsearch.engine import Tensor, conv1d
from cfsearch.evolution import EvoConfig
from cfsearch.network import StageTrail, SupernetWeights, subnet_view
from cfsearch.sparsity import active_channel_mask
from cfsearch.space import (
    ArchitectureGenome,
    enumerate_genomes,
    genome_space_size,
    maximal_genome,
    minimal_genome,
    spec_from_dict,
)
from cfsearch.trainer import (
    TASK_SUPER_RESOLUTION,
    TASK_TRANSLATION,
    TrainConfig,
    evaluate_genome,
    make_dataset,
    pretrain_supernet,
)
from cfsearch.util import as_rng, child_seed

from conftest import SUPER_RESOLUTION_YAML, build_spec, resampling_spec_dict
from reference_ops import sum_all


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
    best = joint_search_baseline(TabularOracle(scape))
    g = best.genome
    # Improving any single coordinate away from the argmax cannot help.
    for l in range(2):
        for c in range(spec.num_channel_choices):
            probe = ArchitectureGenome(
                g.path_index,
                g.operator_assignment,
                tuple(c if i == l else v for i, v in enumerate(g.channel_assignment)),
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


def test_oracle_cost_is_memoized_for_valid_genomes_only(monkeypatch):
    spec = landscape_spec()
    oracle = TabularOracle(build_landscape(spec, "separable", seed=1))
    calls = []
    real_cost = oracles.genome_cost

    def counting_cost(spec, genome):
        calls.append(genome.to_record())
        return real_cost(spec, genome)

    monkeypatch.setattr(oracles, "genome_cost", counting_cost)
    g = maximal_genome(spec, 0)
    first = oracle.cost(g)
    assert oracle.cost(ArchitectureGenome(0, g.operator_assignment, g.channel_assignment)) is first
    assert oracle.evaluate(g).cost is first
    assert calls == [g.to_record()]
    bad = ArchitectureGenome(0, (0, 0), (0, 9))
    for _ in range(2):
        with pytest.raises(GenomeError):
            oracle.cost(bad)
    assert calls == [g.to_record()] + [bad.to_record()] * 2


@pytest.mark.parametrize("run", ["joint_sweep", "run_search"])
def test_the_gan_oracle_validates_each_new_genome_once(monkeypatch, run):
    config = default_config()
    spec, ds, _ = prepare(config)  # a new spec, which has checked no genome yet
    weights = SupernetWeights.create(spec, seed=3)
    checked = []
    check = space.validate_genome
    monkeypatch.setattr(space, "validate_genome", lambda s, g: checked.append(g) or check(s, g))
    oracle = GanOracle(weights, ds)
    if run == "joint_sweep":
        joint_search_baseline(oracle)
        assert len(checked) == genome_space_size(spec)
    else:
        run_search(oracle, EvoConfig.from_mapping(config["evolution"]), as_rng(3))
    scored = {record for record, _ in oracle.cache_snapshot()}
    assert len(checked) == len(set(checked))
    assert scored <= {g.to_record() for g in checked}
    assert set(checked) == spec.valid_genomes


def test_direct_calls_still_refuse_an_invalid_genome():
    weights, ds = trail_case(TASK_TRANSLATION)
    bad = ArchitectureGenome(0, (0, 1), (1, 2))
    calls = (
        lambda: subnet_view(weights, bad),
        lambda: genome_cost(weights.spec, bad),
        lambda: evaluate_genome(weights, bad, ds),
    )
    for call in calls * 2:
        with pytest.raises(GenomeError, match="channel index 2"):
            call()


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


def test_joint_baseline_first_max_tie_break():
    spec = build_spec(n_paths=1, n_layers=1, n_operators=2, channels=(2, 3))
    genomes = list(enumerate_genomes(spec))
    table = {g.to_record(): 1.0 for g in genomes}
    scape = TabularLandscape(spec=spec, rule="random_seeded", seed=0, table=table)
    best = joint_search_baseline(TabularOracle(scape))
    assert best.genome == genomes[0]
    assert best.genome.sort_key() == min(g.sort_key() for g in genomes)


def test_joint_baseline_cost_limits_bind():
    spec = landscape_spec()
    scape = build_landscape(spec, "separable", seed=2)
    oracle = TabularOracle(scape)
    free = joint_search_baseline(oracle)
    free_params = oracle.cost(free.genome).params
    capped = joint_search_baseline(oracle, params_limit=free_params, flops_limit=10**9)
    assert oracle.cost(capped.genome).params < free_params
    assert capped.fitness <= free.fitness


def test_infeasible_constraints_name_the_culprit():
    spec = landscape_spec()
    oracle = TabularOracle(build_landscape(spec, "separable", seed=2))
    with pytest.raises(InfeasibleError, match="params limit"):
        joint_search_baseline(oracle, params_limit=1)
    with pytest.raises(InfeasibleError, match="flops limit"):
        joint_search_baseline(oracle, flops_limit=1)
    # Path 1 holds the fewest params and path 0 the fewest flops, so each
    # limit alone is met and only their combination is not.
    spec = spec_from_dict(resampling_spec_dict())
    oracle = TabularOracle(build_landscape(spec, "random_seeded", seed=2))
    with pytest.raises(InfeasibleError, match="joint constraint"):
        joint_search_baseline(oracle, params_limit=57, flops_limit=741)


def test_joint_baseline_feasible_values_descending():
    spec = landscape_spec()
    oracle = TabularOracle(build_landscape(spec, "random_seeded", seed=3))
    values = joint_search_baseline(oracle, params_limit=10**9, flops_limit=10**9).feasible
    assert len(values) == oracle.landscape.size()
    assert list(values) == sorted(values, reverse=True)
    fewer = joint_search_baseline(oracle, params_limit=300, flops_limit=10**9).feasible
    assert len(fewer) < len(values)


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


def trail_case(task, channels=(2, 3)):
    """A small supernet with spread scale factors, and a dataset for ``task``."""
    if task == TASK_TRANSLATION:
        spec = build_spec(
            n_paths=2, n_layers=2, channels=channels, input_sites=1, input_channels=2
        )
    else:  # resamples into each layer: 4 sites in, 8 after layer 0, 16 out
        spec = spec_from_dict(
            {
                "input_channels": 1,
                "input_sites": 4,
                "channel_choices": list(channels),
                "paths": [
                    {
                        "resolution_schedule": [2, 4],
                        "operators": [["conv3x3", "dws_block"]] * 2,
                    }
                ],
            }
        )
    weights = SupernetWeights.create(spec, seed=3)
    rng = np.random.default_rng(4)
    for p in range(spec.num_paths):
        for gamma in weights.gamma_tensors(p):
            gamma.data = rng.uniform(0.1, 1.0, size=gamma.data.shape)
    return weights, make_dataset(task, samples=16, val_fraction=0.5, seed=1)


@pytest.mark.parametrize(
    "task, channels",
    [(TASK_TRANSLATION, (2, 3)), (TASK_SUPER_RESOLUTION, (2, 3)), (TASK_TRANSLATION, (1, 2, 3))],
    ids=["translation", "super_resolution", "translation-two-narrow-widths"],
)
def test_gan_oracle_trail_is_bit_identical_in_any_order(task, channels):
    weights, ds = trail_case(task, channels)
    genomes = list(enumerate_genomes(weights.spec))
    plain = {g.to_record(): evaluate_genome(weights, g, ds) for g in genomes}
    shuffled = [genomes[i] for i in np.random.default_rng(5).permutation(len(genomes))]
    for order in (genomes, genomes[::-1], shuffled):
        oracle = GanOracle(weights, ds)
        assert [oracle.evaluate(g).fitness for g in order] == [
            plain[g.to_record()] for g in order
        ]
    # Re-scoring: an earlier genome after a later one, and one genome twice.
    trail = StageTrail()
    for g in (genomes[0], genomes[-1], genomes[0], genomes[0]):
        assert evaluate_genome(weights, g, ds, trail) == plain[g.to_record()]


class FullWalkTrail(StageTrail):
    """The reference resume: each forward looks its stored prefix up from the
    root, and marks its whole chain used even when it ran no stage."""

    def resume(self, x, weights, keys):
        if self.x is not x.data or self.weights is not weights:
            self.x, self.weights = x.data, weights
            self.entries.clear()
            self.keeps.clear()
            self.heads.clear()
            self.nbytes = 0
        self.keys, self.chain = keys, []
        found, parent = None, 0
        for key in keys:
            entry = self.entries.get((parent, key))
            if entry is None:
                break
            self.chain.append((parent, key))
            found, parent = entry, entry[0]
        return len(self.chain), x if found is None else Tensor(found[1])

    def store(self, outputs):
        entries, chain = self.entries, self.chain
        parent, held, _ = entries[chain[-1]] if chain else (0, None, 0)
        for output in outputs:
            key = (parent, self.keys[len(chain)])
            size = 0 if output is held else output.nbytes
            self._numbered = parent = self._numbered + 1
            entries[key] = (parent, output, size)
            chain.append(key)
            self.nbytes += size
            held = output
        for key in reversed(chain):
            entries.move_to_end(key)
        while self.nbytes > network.TRAIL_BUDGET_BYTES and len(entries) > len(chain):
            self.nbytes -= entries.popitem(last=False)[1][2]


def assert_same_trail(trail, reference):
    """The same entries in the same LRU order, with equal outputs, chain and bytes."""
    assert list(trail.entries) == list(reference.entries)
    for (number, output, size), (r_number, r_output, r_size) in zip(
        trail.entries.values(), reference.entries.values()
    ):
        assert (number, size) == (r_number, r_size)
        assert np.array_equal(output, r_output)
    assert (trail.chain, trail.nbytes) == (reference.chain, reference.nbytes)


def run_in_lockstep(views, x, trail, reference):
    """Run each view with both trails; outputs and trails must stay equal."""
    for view in views:
        assert np.array_equal(view(x, trail).data, view(x, reference).data)
        assert_same_trail(trail, reference)


@pytest.fixture(scope="module")
def default_supernet():
    """The default config's pretrained weights and dataset."""
    config = default_config()
    spec, ds, train_cfg = prepare(config)
    seed = child_seed(int(config["seed"]), "pretrain")
    return config, pretrain_supernet(spec, ds, train_cfg, seed).weights, ds


# sha256 of the ``repr`` of every joint-sweep fitness, in canonical order, and
# of every path score, on the default supernet (config seed 7) and on the
# supernet of the benchmark's super-resolution config; re-recorded when a fair
# cycle's scale factors and discriminator began learning from its stacked pass.
SWEEP_GOLDEN = {
    None: (
        "dbf84dd3f321e5474dc6209d98df1890e65c7e93e3283adb7a70adf72d7f9480",
        "83a4b21e40dd009477ba95b43c33db08c1d8ec879bc368c4d89e1a398d300d3e",
    ),
    SUPER_RESOLUTION_YAML: (
        "1abc5f0cd7cea87a0313ddb4cfe6656ad269d60c8945cee9aa4fbfee36c31501",
        "6d620576c14df6806c5dd2706fdf3ad092b84252cbd95f8ee79264ec5b7943b2",
    ),
}


@pytest.mark.parametrize("path", list(SWEEP_GOLDEN), ids=["default", "super_resolution"])
def test_joint_sweep_and_path_scores_match_their_recorded_digests(path):
    config = load_config(path and str(path))
    spec, ds, train_cfg = prepare(config)
    weights = pretrain_supernet(
        spec, ds, train_cfg, child_seed(int(config["seed"]), "pretrain")
    ).weights
    oracle = GanOracle(weights, ds)
    joint_search_baseline(oracle)
    fitness = [result.fitness for _, result in oracle.cache_snapshot()]
    paths = [oracle.path_score(p) for p in range(spec.num_paths)]
    assert len(fitness) == genome_space_size(spec)
    digests = tuple(hashlib.sha256(repr(v).encode()).hexdigest() for v in (fitness, paths))
    assert digests == SWEEP_GOLDEN[path]


@pytest.mark.parametrize("run", ["joint_sweep", "shrink_channels"])
def test_trail_resume_from_the_last_chain_matches_a_full_walk(default_supernet, run):
    config, weights, ds = default_supernet
    genomes = list(enumerate_genomes(weights.spec))
    if run == "shrink_channels":  # the misses of one search, in the order it made them
        oracle = GanOracle(weights, ds)
        run_search(oracle, EvoConfig.from_mapping(config["evolution"]), as_rng(3))
        by_record = {genome.to_record(): genome for genome in genomes}
        genomes = [by_record[record] for record, _ in oracle.cache_snapshot()]
    views = [subnet_view(weights, genome) for genome in genomes]
    run_in_lockstep(views, Tensor(ds.val_x), StageTrail(), FullWalkTrail())


def test_a_head_only_miss_resumes_like_a_full_walk(monkeypatch):
    weights, ds = trail_case(TASK_TRANSLATION, channels=(1, 2, 3))
    x = Tensor(ds.val_x)
    widest = maximal_genome(weights.spec, 0)
    views = [
        subnet_view(weights, replace(widest, channel_assignment=(2, last)))
        for last in (2, 0, 1, 2)
    ]
    trail, reference = StageTrail(), FullWalkTrail()
    run_in_lockstep(views[:1], x, trail, reference)
    counts = count_stage_calls(monkeypatch)
    run_in_lockstep(views[1:], x, trail, reference)
    # Each later view differs only in its last width: the head alone, on both trails.
    assert counts == {"conv1d": 2 * len(views[1:]), "channel_rms_norm": 0}


def test_trail_starts_over_on_other_inputs_or_weights():
    weights, ds = trail_case(TASK_TRANSLATION)
    genome = maximal_genome(weights.spec, 0)
    view = subnet_view(weights, genome)
    trail = StageTrail()
    view(Tensor(ds.val_x), trail)
    assert trail.resume(Tensor(ds.val_x), weights, view.stage_keys())[0] == len(trail.keys)

    other_x = Tensor(ds.val_x * 0.5)
    assert np.array_equal(view(other_x, trail).data, view(other_x).data)
    assert trail.x is other_x.data

    other_weights = weights.clone()
    for tensor in other_weights.tensors.values():
        tensor.data = tensor.data * 1.5
    other_view = subnet_view(other_weights, genome)
    x = Tensor(ds.val_x)
    assert trail.resume(x, other_weights, other_view.stage_keys())[0] == 0
    assert np.array_equal(other_view(x, trail).data, other_view(x).data)
    assert evaluate_genome(weights, genome, ds, trail) == evaluate_genome(weights, genome, ds)

    # The same switches, with the reference resume alongside.
    genomes = list(enumerate_genomes(weights.spec))[::5]
    trail, reference = StageTrail(), FullWalkTrail()
    for w, inputs in ((weights, x), (weights, other_x), (other_weights, other_x), (weights, x)):
        run_in_lockstep([subnet_view(w, g) for g in genomes], inputs, trail, reference)


def count_stage_calls(monkeypatch, names=("conv1d", "channel_rms_norm")):
    """Counts of the convs (stem, block and head) and norms the generator runs."""
    counts = dict.fromkeys(names, 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(network, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(network, name, counted)
    return counts


def test_trail_resumes_from_a_genome_scored_before_the_last(monkeypatch):
    weights, ds = trail_case(TASK_TRANSLATION)
    a = maximal_genome(weights.spec, 0)
    b = maximal_genome(weights.spec, 1)
    a_edited = replace(a, channel_assignment=(1, 0))  # shares all but layer 1's mask with a
    oracle = GanOracle(weights, ds)
    oracle.evaluate(a)
    oracle.evaluate(b)
    counts = count_stage_calls(monkeypatch)
    fitness = oracle.evaluate(a_edited).fitness
    assert counts == {"conv1d": 1, "channel_rms_norm": 0}  # the head alone
    monkeypatch.undo()
    assert fitness == evaluate_genome(weights, a_edited, ds)


@pytest.mark.parametrize("task", [TASK_TRANSLATION, TASK_SUPER_RESOLUTION])
def test_a_sweep_runs_one_norm_per_distinct_core_output(monkeypatch, task):
    weights, ds = trail_case(task)
    genomes = list(enumerate_genomes(weights.spec))
    # A core's output is fixed by the path and the operators and widths
    # before it; its own layer's width enters only at the mask after it.
    cores = {
        (g.path_index, l, g.operator_assignment[: l + 1], g.channel_assignment[:l])
        for g in genomes
        for l in range(len(g.operator_assignment))
    }
    counts = count_stage_calls(monkeypatch)
    oracle = GanOracle(weights, ds)
    for g in genomes:
        oracle.evaluate(g)
    assert counts["channel_rms_norm"] == len(cores)


@pytest.mark.parametrize("task", [TASK_TRANSLATION, TASK_SUPER_RESOLUTION])
def test_a_miss_in_the_last_width_runs_the_head_alone(monkeypatch, task):
    weights, ds = trail_case(task)
    x = Tensor(ds.val_x)
    narrow = minimal_genome(weights.spec, 0)
    wide = maximal_genome(weights.spec, 0)
    narrow_last = replace(wide, channel_assignment=(1, 0))  # differs from wide in the last width
    names = ("conv1d", "channel_rms_norm", "active_channel_mask")
    counts = count_stage_calls(monkeypatch, names)
    trail = StageTrail()
    subnet_view(weights, narrow)(x, trail)
    assert counts["active_channel_mask"] == 2
    subnet_view(weights, wide)(x, trail)
    # The trail has seen layer 1 at this width, though behind another layer 0.
    counts.update(dict.fromkeys(names, 0))
    subnet_view(weights, narrow_last)(x, trail)
    assert counts == {"conv1d": 1, "channel_rms_norm": 0, "active_channel_mask": 0}
    # Without a trail, each forward derives one keep vector per narrow layer.
    for genome, narrow_layers in ((narrow, 2), (narrow_last, 1), (wide, 0)):
        counts.update(dict.fromkeys(names, 0))
        subnet_view(weights, genome)(x)
        assert counts["active_channel_mask"] == narrow_layers


@pytest.mark.parametrize(
    "task, channels",
    [(TASK_TRANSLATION, (2, 3)), (TASK_SUPER_RESOLUTION, (2, 3)), (TASK_TRANSLATION, (1, 2, 3))],
    ids=["translation", "super_resolution", "translation-two-narrow-widths"],
)
def test_a_sweep_masks_the_head_weight_once_per_path_and_last_width(monkeypatch, task, channels):
    weights, ds = trail_case(task, channels)
    spec = weights.spec
    genomes = list(enumerate_genomes(spec))
    heads = {weights[f"g/p{p}/head/w"] for p in range(spec.num_paths)}
    masked = []
    multiply = Tensor.__mul__

    def counted(a, b):
        if a in heads:
            masked.append(a)
        return multiply(a, b)

    monkeypatch.setattr(Tensor, "__mul__", counted)
    oracle = GanOracle(weights, ds)
    for g in genomes:
        oracle.evaluate(g)
    narrow_last = {
        (g.path_index, g.channel_assignment[-1])
        for g in genomes
        if spec.channel_choices[g.channel_assignment[-1]] < spec.max_width
    }
    assert len(masked) == len(narrow_last) > 0
    monkeypatch.undo()
    for g in genomes:
        assert oracle.evaluate(g).fitness == evaluate_genome(weights, g, ds)


def test_a_masked_head_weight_built_frozen_is_built_again_for_a_gradient():
    weights, ds = trail_case(TASK_TRANSLATION)
    x = Tensor(ds.val_x)
    view = subnet_view(weights, minimal_genome(weights.spec, 0))
    trail = StageTrail()
    view(x, trail)
    key = (0, view.channel_widths[-1])
    frozen = trail.heads[key]
    assert not frozen.requires_grad
    out, grads = output_and_gradients(weights, lambda: view(x, trail))
    assert trail.heads[key] is not frozen and trail.heads[key].requires_grad
    expected_out, expected = output_and_gradients(weights, lambda: view(x))
    assert np.array_equal(out, expected_out)
    for name in ("g/p0/head/w", "g/p0/head/b"):
        assert np.array_equal(grads[name], expected[name]), name
    # A frozen forward does not reuse the node that records a gradient.
    assert np.array_equal(view(x, trail).data, expected_out)
    assert not trail.heads[key].requires_grad
    # Other weights start the trail over, masked head weights included.
    view(x, trail)
    other = weights.clone()
    other["g/p0/head/w"].data *= 2.0
    other_view = subnet_view(other, minimal_genome(weights.spec, 0))
    assert np.array_equal(other_view(x, trail).data, other_view(x).data)


@pytest.mark.parametrize("task", [TASK_TRANSLATION, TASK_SUPER_RESOLUTION])
def test_scoring_builds_no_node_with_a_backward_closure(monkeypatch, task):
    weights, ds = trail_case(task)
    make = Tensor._make
    nodes = []

    def counted(data, parents, backward):
        nodes.append(make(data, parents, backward))
        return nodes[-1]

    monkeypatch.setattr(Tensor, "_make", staticmethod(counted))
    oracle = GanOracle(weights, ds)
    joint_search_baseline(oracle)
    for p in range(weights.spec.num_paths):
        oracle.path_score(p)
    assert oracle.genome_evaluations == len(list(enumerate_genomes(weights.spec)))
    assert oracle.path_evaluations == weights.spec.num_paths
    assert nodes and [node for node in nodes if node._backward is not None] == []


def masked_head_reference(view, x):
    """``view(x)`` from engine ops: the last layer's output times its keep
    vector, then the head conv with its weight unmasked."""
    weights, p = view.weights, view.path_index
    last = len(view.channel_widths) - 1
    h = x
    for stage in range(3 * len(view.channel_widths)):
        h = view._stage(stage, h)
    keep = active_channel_mask(weights.gamma(p, last).data, view.channel_widths[last])
    h = h * Tensor(keep.reshape(1, -1, 1))
    return conv1d(h, weights[f"g/p{p}/head/w"], bias=weights[f"g/p{p}/head/b"])


def output_and_gradients(weights, forward):
    """The output of ``forward()`` and the generator gradients of a fixed linear loss on it."""
    generator = weights.named("g/p0/")
    with weights.train_only(t for _, t in generator):
        out = forward()
        rows = np.random.default_rng(7).normal(size=out.data.shape)
        sum_all(out * Tensor(rows)).backward()
        return out.data, {name: t.grad for name, t in generator if t.grad is not None}


@pytest.mark.parametrize("task", [TASK_TRANSLATION, TASK_SUPER_RESOLUTION])
def test_the_head_masks_the_last_layer_through_its_weight_bit_for_bit(task):
    weights, ds = trail_case(task)
    x = Tensor(ds.val_x)
    oracle, trail = GanOracle(weights, ds), StageTrail()
    for genome in enumerate_genomes(weights.spec):
        view = subnet_view(weights, genome)
        assert np.array_equal(view(x, trail).data, masked_head_reference(view, x).data)
        assert oracle.evaluate(genome).fitness == evaluate_genome(weights, genome, ds)

    view = subnet_view(weights, minimal_genome(weights.spec, 0))
    out, grads = output_and_gradients(weights, lambda: view(x))
    expected_out, expected = output_and_gradients(weights, lambda: masked_head_reference(view, x))
    assert np.array_equal(out, expected_out)
    assert grads.keys() == expected.keys() >= {"g/p0/head/w", "g/p0/l1/gamma"}
    for name, grad in expected.items():
        assert np.array_equal(grads[name], grad), name


def test_a_full_width_mask_stage_returns_its_input():
    weights, _ = trail_case(TASK_TRANSLATION)
    view = subnet_view(weights, maximal_genome(weights.spec, 0))
    h = Tensor(np.ones((2, weights.spec.max_width, 1)))
    assert view.stage_keys()[3] == weights.spec.max_width  # layer 0's mask
    assert view._stage(3, h) is h
    narrow = replace(view, channel_widths=(2, 3))._stage(3, h)
    assert narrow is not h and np.sum(narrow.data) == 2 * 2


def chain_bytes(trail):
    return sum(trail.entries[key][1].nbytes for key in trail.chain)


def distinct_arrays(trail):
    """The output arrays the trail holds, each once (a full-width mask shares its norm's)."""
    return {id(output): output for _, output, _ in trail.entries.values()}.values()


@pytest.mark.parametrize("budget, evicts", [(network.TRAIL_BUDGET_BYTES, False), (32 * 1024, True)])
def test_trail_holds_its_budget_and_keeps_every_entry_reachable(monkeypatch, budget, evicts):
    monkeypatch.setattr(network, "TRAIL_BUDGET_BYTES", budget)
    weights, ds = trail_case(TASK_SUPER_RESOLUTION)
    genomes = list(enumerate_genomes(weights.spec))
    order = [genomes[i] for i in np.random.default_rng(6).permutation(len(genomes))]
    trail, reference = StageTrail(), FullWalkTrail()
    prefixes = set()
    evicted = shared = False
    for g in genomes + order:
        assert evaluate_genome(weights, g, ds, trail) == evaluate_genome(weights, g, ds)
        evaluate_genome(weights, g, ds, reference)
        assert_same_trail(trail, reference)
        outputs = distinct_arrays(trail)
        assert trail.nbytes == sum(output.nbytes for output in outputs)
        shared = shared or len(outputs) < len(trail.entries)
        assert trail.nbytes <= budget + chain_bytes(trail)
        numbers = {number for number, _, _ in trail.entries.values()}
        assert {parent for parent, _ in trail.entries} <= numbers | {0}
        prefixes.update(tuple(trail.keys[: i + 1]) for i in range(len(trail.keys)))
        evicted = evicted or len(trail.entries) < len(prefixes)
    assert evicted == evicts
    assert shared


class ConstantOracle(oracles.FitnessOracle):
    """Scores every genome with one value, so a test can set it to NaN."""

    def __init__(self, spec, value=1.0):
        super().__init__(spec)
        self.value = value

    def _fitness(self, genome):
        return self.value


def test_equal_genomes_built_separately_share_one_cache_entry():
    spec = landscape_spec()
    oracle = TabularOracle(build_landscape(spec, "random_seeded", seed=1))
    first = ArchitectureGenome(0, (0, 1), (1, 2))
    other = ArchitectureGenome(1, (1, 1), (0, 2))
    same = [
        ArchitectureGenome(0, (0, 1), (1, 2)),
        next(genome for genome in enumerate_genomes(spec) if genome == first),
        replace(maximal_genome(spec, 0), operator_assignment=(0, 1), channel_assignment=(1, 2)),
    ]
    result = oracle.evaluate(first)
    oracle.evaluate(other)
    for genome in same:
        assert genome is not first and oracle.cached(genome)
        assert oracle.evaluate(genome) is result
        assert oracle.cost(genome) is result.cost
    assert oracle.genome_evaluations == 2
    assert oracle.lookups == 2 + len(same)
    snapshot = oracle.cache_snapshot()
    assert [record for record, _ in snapshot] == [first.to_record(), other.to_record()]
    assert oracle.cache_snapshot(1) == snapshot[1:]
    assert oracle.cache_snapshot(2) == []


def test_oracle_formats_a_record_only_to_report_a_non_finite_fitness(monkeypatch):
    spec = landscape_spec()
    genome, poisoned = ArchitectureGenome(0, (0, 1), (1, 2)), ArchitectureGenome(0, (1, 1), (1, 2))
    message = f"non-finite fitness nan for genome {poisoned.to_record()}"
    formatted = []
    to_record = ArchitectureGenome.to_record
    monkeypatch.setattr(
        ArchitectureGenome, "to_record", lambda g: formatted.append(g) or to_record(g)
    )
    oracle = ConstantOracle(spec)
    oracle.evaluate(genome)
    oracle.evaluate(genome)
    oracle.cost(ArchitectureGenome(1, (0, 0), (0, 0)))
    assert formatted == []

    oracle.value = float("nan")
    with pytest.raises(InvariantError, match=message):
        oracle.evaluate(replace(poisoned))
    assert formatted == [poisoned]
    assert not oracle.cached(poisoned)
