"""End-to-end acceptance checks.

Each test verifies one release criterion and prints a single pass/fail
line to the terminal, bypassing capture, so a plain ``pytest`` run shows
the scoreboard.  Every stochastic check runs under fixed seeds and
compares against an independently computed reference (exhaustive
enumeration, closed forms, central finite differences), so the suite is
deterministic end to end.
"""

import contextlib
import itertools
import json
import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from cfsearch.cli import main
from cfsearch.configs import default_config
from cfsearch.costs import genome_cost, satisfies_constraints
from cfsearch.engine import Tensor
from cfsearch.evolution import EvoConfig, shrink_channels
from cfsearch.fairness import (
    uniform_equal_probability,
    uniform_equal_probability_log,
)
from cfsearch.network import DiscriminatorView, SupernetWeights, subnet_view
from cfsearch.oracles import (
    GanOracle,
    TabularOracle,
    shipped_landscape,
)
from cfsearch.pipeline import joint_search_baseline, run_pipeline, run_search
from cfsearch.space import (
    enumerate_genomes,
    enumerate_specializations,
    maximal_genome,
    operator_specialization_count,
)
from cfsearch.sparsity import prox_l1
from cfsearch.trainer import (
    TrainConfig,
    gamma_zero_stats,
    make_translation_dataset,
    pretrain_supernet,
)

from conftest import build_spec
from reference_ops import add, finite_difference_gradient, mean_all, square, sub


@pytest.fixture
def criterion(capsys):
    """Reporter: prints one scoreboard line per criterion, win or lose."""

    @contextlib.contextmanager
    def report(number: int, label: str):
        start = time.time()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(
                    f"criterion {number}: FAIL  {label}  "
                    f"[{time.time() - start:.1f}s]",
                    flush=True,
                )
            raise
        with capsys.disabled():
            print(
                f"criterion {number}: PASS  {label}  "
                f"[{time.time() - start:.1f}s]",
                flush=True,
            )

    return report


# -- 1: exact training fairness ---------------------------------------------


def test_criterion_1_fair_pretraining(criterion):
    with criterion(1, "pretraining balances every update counter exactly"):
        start = time.time()
        dataset = make_translation_dataset(samples=8, val_fraction=0.25, seed=3)
        run = 0
        for n_paths, n_layers, n_ops in itertools.product((1, 2, 3), repeat=3):
            spec = build_spec(
                n_paths=n_paths,
                n_layers=n_layers,
                n_operators=n_ops,
                channels=(2,),
                input_sites=1,
                input_channels=2,
            )
            for epochs in (1, 3, 10):
                result = pretrain_supernet(
                    spec,
                    dataset,
                    TrainConfig(epochs=epochs, batch_size=4),
                    seed=1000 + run,
                )
                ledger = result.ledger
                for counts in ledger.operator_counts:
                    assert np.all(counts == epochs)
                assert np.all(ledger.generator_counts == epochs)
                assert np.all(ledger.discriminator_counts == epochs)
                assert ledger.is_fair()
                run += 1
        assert run == 81
        assert time.time() - start < 60.0


# -- 2: balanced-assignment probability -------------------------------------


def _balanced_probability_by_enumeration(m: int, t: int) -> Fraction:
    """Count balanced sequences among all m**t equally likely ones."""
    balanced = 0
    for seq in itertools.product(range(m), repeat=t):
        occupancy = [seq.count(v) for v in range(m)]
        if all(c == t // m for c in occupancy):
            balanced += 1
    return Fraction(balanced, m**t)


def test_criterion_2_uniform_probability(criterion):
    with criterion(2, "uniform-sampling balance odds match enumeration, "
                      "decay monotonically, and agree with simulation"):
        start = time.time()
        assert uniform_equal_probability(2, 2) == Fraction(1, 2)
        assert uniform_equal_probability(2, 4) == Fraction(3, 8)
        assert uniform_equal_probability(2, 6) == Fraction(5, 16)
        for m, t in [(2, 2), (2, 4), (2, 6), (3, 3), (3, 6), (4, 4)]:
            exact = uniform_equal_probability(m, t)
            assert exact == _balanced_probability_by_enumeration(m, t)

        for m in (2, 3, 4):
            logs = [
                uniform_equal_probability_log(m, t)
                for t in range(m, 10_001, m)
            ]
            diffs = np.diff(np.array(logs))
            assert np.all(diffs < 0.0)

        rng = np.random.default_rng(20260822)
        trials = 100_000
        for m, t in [(2, 4), (3, 3)]:
            p = float(uniform_equal_probability(m, t))
            draws = rng.integers(0, m, size=(trials, t))
            occupancy = (draws[:, :, None] == np.arange(m)).sum(axis=1)
            observed = float(np.all(occupancy == t // m, axis=1).mean())
            sigma = (p * (1.0 - p) / trials) ** 0.5
            assert abs(observed - p) <= 3.0 * sigma
        assert time.time() - start < 120.0


# -- 3: specialization counting ---------------------------------------------


def test_criterion_3_specialization_count(criterion):
    with criterion(3, "specialization count formula matches brute force"):
        start = time.time()
        for m, layers in itertools.product((1, 2, 3), repeat=2):
            formula = operator_specialization_count(m, layers)
            assert formula == len(enumerate_specializations(m, layers))
        assert operator_specialization_count(2, 2) == 2
        assert operator_specialization_count(3, 2) == 6
        assert operator_specialization_count(3, 3) == 36
        assert operator_specialization_count(3, 4) == 216
        assert time.time() - start < 60.0


# -- 4: proximal sparsification ---------------------------------------------


def test_criterion_4_sparsification(criterion):
    with criterion(4, "shrinkage matches the closed form and stronger "
                      "penalties never produce fewer zero factors"):
        start = time.time()
        grid = np.linspace(-5.0, 5.0, 1000)
        for lam in (0.0, 0.1, 1.0, 2.5):
            reference = np.sign(grid) * np.maximum(np.abs(grid) - lam, 0.0)
            assert np.array_equal(prox_l1(grid, lam), reference)

        spec = build_spec(
            n_paths=1,
            n_layers=2,
            n_operators=2,
            channels=(2, 4),
            input_sites=1,
            input_channels=2,
        )
        dataset = make_translation_dataset(samples=32, val_fraction=0.25, seed=11)
        fractions = []
        for lam in (0.0, 1e-3, 1e-2, 1e-1):
            cfg = TrainConfig(
                epochs=60,
                batch_size=8,
                lambda_sparsity=lam,
                lambda_recon=10.0,
                lambda_perceptual=1.0,
                lr_weights=0.001,
                lr_gamma=0.3,
            )
            result = pretrain_supernet(spec, dataset, cfg, seed=21)
            _, fraction = gamma_zero_stats(result.weights)
            fractions.append(fraction)
        assert fractions == sorted(fractions)
        assert fractions[-1] > 0.0
        assert time.time() - start < 300.0


# -- 5: gradient correctness ------------------------------------------------


def test_criterion_5_gradients(criterion):
    with criterion(5, "backpropagated gradients match central differences "
                      "to 1e-4 on 20 random networks"):
        start = time.time()
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(7000 + trial)
            spec = build_spec(
                n_paths=1,
                n_layers=int(rng.integers(1, 3)),
                n_operators=int(rng.integers(1, 3)),
                channels=(2, 3),
                input_sites=4,
                input_channels=1,
            )
            weights = SupernetWeights.create(spec, seed=int(rng.integers(1 << 30)))
            genome = maximal_genome(spec, 0)
            x = Tensor(rng.normal(size=(3, 1, 4)))
            y = Tensor(rng.normal(size=(3, 1, 4)))
            def loss_value():
                out = subnet_view(weights, genome)(x)
                scores = DiscriminatorView(weights, 0)(out)
                return add(mean_all(square(sub(out, y))), mean_all(square(scores)))

            with weights.train_only(weights.tensors.values()):
                loss = loss_value()
                loss.backward()
                for tensor in weights.tensors.values():
                    if tensor.grad is None:
                        continue
                    fd = finite_difference_gradient(
                        lambda: loss_value().item(), tensor
                    )
                    scale = np.maximum(
                        np.maximum(np.abs(tensor.grad), np.abs(fd)), 1.0
                    )
                    worst = max(worst, float((np.abs(tensor.grad - fd) / scale).max()))
        assert worst < 1e-4
        assert time.time() - start < 60.0


# -- 6: evolutionary channel shrinking --------------------------------------

BENCH_PARAMS_LIMIT = 1272
BENCH_FLOPS_LIMIT = 9792


def test_criterion_6_evolution(criterion):
    with criterion(6, "evolution finds a top-1% feasible config on a fifth "
                      "of the exhaustive budget, and guided mutation is no "
                      "slower than blind mutation"):
        start = time.time()
        bench = shipped_landscape("evolution_bench")
        assert bench.size() == 256
        budget = (bench.size() * 20) // 100
        base = maximal_genome(bench.spec, 0)

        feasible = joint_search_baseline(
            TabularOracle(bench), BENCH_PARAMS_LIMIT, BENCH_FLOPS_LIMIT
        ).feasible
        top_count = max(1, -(-len(feasible) // 100))
        threshold = feasible[top_count - 1]

        hits = 0
        for seed in range(20):
            oracle = TabularOracle(bench)
            cfg = EvoConfig(
                population=12,
                elites=3,
                generations=40,
                eval_budget=budget,
                params_limit=BENCH_PARAMS_LIMIT,
                flops_limit=BENCH_FLOPS_LIMIT,
                rg_refresh="once",
            )
            result = shrink_channels(base, oracle, cfg, np.random.default_rng(seed))
            assert oracle.genome_evaluations <= budget
            bests = [row.best_fitness for row in result.history]
            assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
            cost = genome_cost(bench.spec, result.best_genome)
            assert satisfies_constraints(
                cost, BENCH_PARAMS_LIMIT, BENCH_FLOPS_LIMIT
            )
            if result.best_fitness >= threshold:
                hits += 1
        assert hits >= 18

        plateau = shipped_landscape("monotone_plateau")
        for landscape in (bench, plateau):
            template = maximal_genome(landscape.spec, 0)
            reachable_best = max(
                landscape.fitness(genome)
                for genome in enumerate_genomes(landscape.spec)
                if genome.path_index == template.path_index
                and genome.operator_assignment == template.operator_assignment
            )
            medians = {}
            for mode in ("directional", "random"):
                generations_needed = []
                for seed in range(20):
                    oracle = TabularOracle(landscape)
                    cfg = EvoConfig(
                        population=6,
                        elites=2,
                        generations=40,
                        eval_budget=300,
                        mutation=mode,
                        params_limit=math.inf,
                        flops_limit=math.inf,
                    )
                    result = shrink_channels(template, oracle, cfg, np.random.default_rng(seed))
                    reached = cfg.generations + 1
                    for row in result.history:
                        if row.best_fitness >= reachable_best - 1e-12:
                            reached = row.generation
                            break
                    generations_needed.append(reached)
                medians[mode] = statistics.median(generations_needed)
            assert medians["directional"] <= medians["random"]
        assert time.time() - start < 300.0


# -- 7: search cost and quality vs the joint baseline ------------------------


def test_criterion_7_coarse_to_fine_vs_joint(criterion):
    with criterion(7, "staged search spends 7x fewer oracle calls than "
                      "joint search and keeps 90% of its fitness"):
        start = time.time()
        for name in ("separable", "monotone_plateau", "deceptive"):
            landscape = shipped_landscape(name)
            staged_oracle = TabularOracle(landscape)
            evo = EvoConfig(
                population=12, elites=4, generations=40, eval_budget=40,
                params_limit=math.inf, flops_limit=math.inf,
            )
            genome, trace, _ = run_search(staged_oracle, evo, np.random.default_rng(5))
            staged_calls = sum(trace.oracle_calls.values())

            joint = joint_search_baseline(TabularOracle(landscape))
            assert joint.evaluations == 1088
            assert joint.evaluations / staged_calls >= 7.0
            assert landscape.fitness(genome) >= 0.9 * joint.fitness
        assert time.time() - start < 300.0


# -- 8: the full pipeline beats random picks ---------------------------------


def test_criterion_8_pipeline_beats_random(criterion):
    with criterion(8, "the end-to-end run is seed-stable and its genome "
                      "beats the median random feasible genome"):
        start = time.time()
        first = run_pipeline(default_config())
        second = run_pipeline(default_config())
        assert second.genome == first.genome
        assert second.searched_fitness == first.searched_fitness
        assert second.final_fitness == first.final_fitness

        evo = default_config()["evolution"]
        feasible = [
            genome
            for genome in enumerate_genomes(first.spec)
            if satisfies_constraints(
                genome_cost(first.spec, genome),
                evo["params_limit"],
                evo["flops_limit"],
            )
        ]
        rng = np.random.default_rng(424242)
        picks = rng.choice(len(feasible), size=20, replace=False)
        oracle = GanOracle(first.pretrain.weights, first.dataset)
        random_scores = [oracle.evaluate(feasible[i]).fitness for i in picks]
        assert first.searched_fitness >= statistics.median(random_scores)
        assert time.time() - start < 600.0


# -- 9: byte-identical artifacts ---------------------------------------------

TIMESTAMP_FIELDS = ("created_at", "finished_at")


def test_criterion_9_reproducible_artifacts(criterion, tmp_path):
    with criterion(9, "two identical runs write byte-identical artifacts"):
        start = time.time()
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        assert main(["run-all", "--out", str(out_a)]) == 0
        assert main(["run-all", "--out", str(out_b)]) == 0

        manifest_a = json.loads((out_a / "manifest.json").read_text())
        manifest_b = json.loads((out_b / "manifest.json").read_text())
        for field in TIMESTAMP_FIELDS:
            assert manifest_a.pop(field) and manifest_b.pop(field)
        assert manifest_a == manifest_b

        names = sorted(manifest_a["artifacts"])
        assert len(names) == 8
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert time.time() - start < 600.0
