"""The benchmark's layer tracer still finds the names it wraps.

``perfbench/tracing.py`` measures layers by replacing names such as
``network.conv1d`` with wrappers that call ``conv_name(*args)`` on the
positional arguments only.  A renamed layer op, or a bias passed
positionally, would leave its per-layer metrics silently at zero.  A joint
sweep must still show one generator forward per genome.  The benchmark's
set-up of each workload must still run without a failed check, so that an
API it uses cannot vanish unnoticed.
"""

import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

import pytest

from cfsearch import cli, engine, network, pipeline, trainer
from cfsearch.network import SupernetWeights
from cfsearch.oracles import GanOracle
from cfsearch.space import enumerate_genomes, maximal_genome

from conftest import build_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["translation", "super_resolution", "search"])
def test_benchmark_set_up_runs_without_a_failed_check(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_harness", PERFBENCH / "harness.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    assert harness.setup_in_child(name, str(tmp_path))["failures"] == []


def test_benchmark_tracer_counts_the_layer_ops_and_restores_them():
    tracing = load_tracing()
    spec, dataset, _ = pipeline.prepare(cli.load_config(None))
    weights = SupernetWeights.create(spec, seed=0)
    widest = maximal_genome(spec, 0)
    # Narrowest widths, so that every layer norm also drops channels.
    genome = replace(widest, channel_assignment=(0,) * len(widest.channel_assignment))
    untraced = trainer.evaluate_genome(weights, genome, dataset)
    make = inspect.getattr_static(engine.Tensor, "_make")

    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)
    try:
        traced = trainer.evaluate_genome(weights, genome, dataset)
    finally:
        tracer.restore()

    assert traced == untraced
    layers = spec.paths[0].num_layers
    assert tracer.calls["engine.conv1d"] >= 1  # the 3-tap stem
    assert tracer.calls["engine.rms_norm"] == layers
    assert tracer.calls["sparsity.mask"] == layers
    assert tracer.counts["engine.graph_nodes"] == 0
    assert network.conv1d is engine.conv1d
    assert network.dwconv1d is engine.dwconv1d
    assert network.channel_rms_norm is engine.channel_rms_norm
    assert inspect.getattr_static(engine.Tensor, "_make") is make


def test_benchmark_tracer_times_the_losses_and_backward_of_pretraining():
    tracing = load_tracing()
    spec, dataset, train_cfg = pipeline.prepare(cli.load_config(None))
    cfg = replace(train_cfg, epochs=1)
    originals = (trainer.total_loss, trainer.discriminator_loss, engine.Tensor.backward)

    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)
    try:
        result = trainer.pretrain_supernet(spec, dataset, cfg, seed=0)
    finally:
        tracer.restore()

    # Per path: one loss over the stacked sub-networks and one discriminator
    # loss, each with its own backward walk.
    assert tracer.calls["trainer.loss"] == 2 * spec.num_paths
    assert tracer.calls["engine.backward"] == 2 * spec.num_paths
    assert tracer.seconds["trainer.loss"] > 0
    assert tracer.seconds["engine.backward"] > 0
    assert tracer.calls["trainer.pretrain"] == 1
    assert tracer.counts["sparsity.zero_fraction.n"] == 1
    assert result.ledger.is_fair()
    assert (trainer.total_loss, trainer.discriminator_loss, engine.Tensor.backward) == originals


def test_benchmark_tracer_sees_one_forward_per_genome_of_a_joint_sweep():
    spec = build_spec(n_layers=2, input_sites=1, input_channels=2)
    dataset = trainer.make_dataset(trainer.TASK_TRANSLATION, samples=16, val_fraction=0.5, seed=1)
    weights = SupernetWeights.create(spec, seed=0)
    genomes = list(enumerate_genomes(spec))
    tracing = load_tracing()

    def traced(sweep):
        tracer = tracing.Tracer()
        tracing.install_layer_spans(tracer)
        try:
            sweep()
        finally:
            tracer.restore()
        return tracer

    joint = traced(lambda: pipeline.joint_search_baseline(GanOracle(weights, dataset)))
    plain = traced(lambda: [trainer.evaluate_genome(weights, g, dataset) for g in genomes])

    for name in ("trainer.evaluate", "oracles.miss", "network.generator"):
        assert joint.calls[name] == len(genomes)
    convs = ("engine.conv1d", "engine.pointwise")
    assert sum(joint.calls[n] for n in convs) < sum(plain.calls[n] for n in convs)


def test_a_fresh_tracer_sees_every_conv_of_a_second_pass():
    # A per-weights cache that kept the ``conv1d`` it found on its first
    # pass would keep calling that pass's wrapper, or the unwrapped op.
    tracing = load_tracing()
    spec, dataset, _ = pipeline.prepare(cli.load_config(None))
    weights = SupernetWeights.create(spec, seed=0)
    x = engine.Tensor(dataset.val_x)

    def forward():
        for p in range(spec.num_paths):
            out = network.mixed_view(weights, p)(x)
            network.DiscriminatorView(weights, p)(out)

    def traced():
        tracer = tracing.Tracer()
        tracing.install_layer_spans(tracer)
        try:
            forward()
        finally:
            tracer.restore()
        return tracer

    first = traced()
    forward()
    second = traced()
    for name in ("engine.conv1d", "engine.pointwise", "engine.dwconv1d"):
        assert second.calls[name] == first.calls[name] > 0
