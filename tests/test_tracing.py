"""The benchmark's layer tracer still finds the names it wraps.

``perfbench/tracing.py`` measures layers by replacing names such as
``network.conv1d`` with wrappers that call ``conv_name(*args)`` on the
positional arguments only.  A renamed layer op, or a bias passed
positionally, would leave its per-layer metrics silently at zero.
"""

import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

from cfsearch import cli, engine, network, pipeline, trainer
from cfsearch.network import SupernetWeights
from cfsearch.space import maximal_genome

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert tracer.counts["engine.graph_nodes"] > 0
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

    passes = sum(path.num_operators + 1 for path in spec.paths)
    # One generator loss per sub-network and per mixture, one discriminator loss per path.
    assert tracer.calls["trainer.loss"] == passes + spec.num_paths
    assert tracer.calls["engine.backward"] == passes + spec.num_paths
    assert tracer.seconds["trainer.loss"] > 0
    assert tracer.seconds["engine.backward"] > 0
    assert tracer.calls["trainer.pretrain"] == 1
    assert tracer.counts["sparsity.zero_fraction.n"] == 1
    assert result.ledger.is_fair()
    assert (trainer.total_loss, trainer.discriminator_loss, engine.Tensor.backward) == originals
