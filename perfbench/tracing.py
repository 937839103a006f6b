"""Outside-in layer tracing: spans and counters recorded by wrapping names.

Nothing under ``src/`` knows about this module.  Each layer is measured by
replacing a public function on the name its caller looks up (for example
``cfsearch.network.conv1d``, because ``network`` imports ``conv1d`` by name)
with a wrapper that records a span, then restoring the original on exit.

A span's self time is its duration minus the time of the wrapped calls it
made; the bookkeeping of nested wrappers is charged to the parent's self time.
``install_layer_spans`` lists every wrapped name, and ``LAYER_METRICS`` the
per-layer metrics that ``layer_values`` derives from the spans.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

from cfsearch import engine, evolution, network, oracles, pipeline, reporting, trainer
from cfsearch.network import DiscriminatorView, GeneratorView, SupernetWeights
from cfsearch.oracles import GanOracle

BYTES_PER_VALUE = 8  # the engine computes in float64


class Tracer:
    """Per-name call counts, total and self seconds, and free-form counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the arguments.

        ``after(args, kwargs, result)`` runs outside the span, so the work it
        does to derive counters is not charged to the layer.
        """
        clock = time.perf_counter
        open_spans = self._open
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds

        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                calls[label] += 1
                seconds[label] += elapsed
                self_seconds[label] += elapsed - children
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installing wrappers ---------------------------------------------------

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)`` until ``restore``.

        Static methods stay static.  An attribute inherited from a base class
        is shadowed on ``owner``, and the shadow is deleted on restore.
        """
        raw = inspect.getattr_static(owner, attr)
        static = isinstance(raw, staticmethod)
        wrapped = make_wrapper(raw.__func__ if static else raw)
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def span_on(self, owner, attr: str, name, after=None) -> None:
        self.patch(owner, attr, lambda fn: self.timed(name, fn, after))

    # -- reading ---------------------------------------------------------------

    def total(self, name: str) -> tuple[int, float]:
        """(calls, seconds) of the spans named ``name``."""
        return self.calls.get(name, 0), self.seconds.get(name, 0.0)


def conv_work(x_shape, w_shape) -> tuple[int, int]:
    """Computed multiply-adds and bytes moved of one ``conv1d`` forward.

    ``x`` is (batch, c_in, sites) and ``w`` is (c_out, c_in, k); the output is
    (batch, c_out, sites).  Bytes count one read of input and weight and one
    write of the output, which is a lower bound on real traffic.
    """
    batch, c_in, sites = x_shape
    c_out, _, kernel = w_shape
    madds = batch * c_out * sites * c_in * kernel
    values = batch * c_in * sites + c_out * c_in * kernel + batch * c_out * sites
    return madds, values * BYTES_PER_VALUE


def dwconv_work(x_shape, w_shape) -> tuple[int, int]:
    """Computed multiply-adds and bytes moved of one ``dwconv1d`` forward."""
    batch, channels, sites = x_shape
    _, kernel = w_shape
    madds = batch * channels * sites * kernel
    values = 2 * batch * channels * sites + channels * kernel
    return madds, values * BYTES_PER_VALUE


def install_layer_spans(tr: Tracer) -> None:
    """Wrap each layer's public functions on the names their callers use."""

    def conv_name(x, w):
        return "engine.pointwise" if w.data.shape[2] == 1 else "engine.conv1d"

    def conv_after(args, kwargs, result):
        madds, moved = conv_work(args[0].data.shape, args[1].data.shape)
        label = conv_name(*args)
        tr.counts[label + ".madds"] += madds
        tr.counts[label + ".bytes"] += moved

    def dwconv_after(args, kwargs, result):
        madds, moved = dwconv_work(args[0].data.shape, args[1].data.shape)
        tr.counts["engine.dwconv1d.madds"] += madds
        tr.counts["engine.dwconv1d.bytes"] += moved

    def count_nodes(fn):
        def make(data, parents, backward):
            out = fn(data, parents, backward)
            if out._backward is not None:
                tr.counts["engine.graph_nodes"] += 1
            return out

        return make

    def pretrain_after(args, kwargs, result):
        tr.counts["trainer.epochs"] += args[2].epochs
        tr.counts["sparsity.zero_fraction.sum"] += trainer.gamma_zero_stats(result.weights)[1]
        tr.counts["sparsity.zero_fraction.n"] += 1

    def save_after(args, kwargs, result):
        tr.counts["network.checkpoint.bytes"] += os.path.getsize(args[1])

    def report_after(args, kwargs, result):
        directory = args[1]
        tr.counts["reporting.bytes"] += sum(
            os.path.getsize(os.path.join(directory, f)) for f in os.listdir(directory)
        )

    span = tr.span_on
    span(network, "conv1d", conv_name, conv_after)
    span(network, "dwconv1d", "engine.dwconv1d", dwconv_after)
    span(network, "channel_rms_norm", "engine.rms_norm")
    span(network, "upsample_repeat", "engine.resample")
    span(network, "downsample_mean", "engine.resample")
    span(engine.Tensor, "backward", "engine.backward")
    tr.patch(engine.Tensor, "_make", count_nodes)

    span(GeneratorView, "__call__", "network.generator")
    span(DiscriminatorView, "__call__", "network.discriminator")
    span(SupernetWeights, "sgd_step", "network.sgd_step")
    span(SupernetWeights, "save", "network.checkpoint_save", save_after)
    span(SupernetWeights, "load", "network.checkpoint_load")

    span(pipeline, "pretrain_supernet", "trainer.pretrain", pretrain_after)
    span(trainer, "pretrain_supernet", "trainer.pretrain", pretrain_after)
    span(trainer, "total_loss", "trainer.loss")
    span(trainer, "discriminator_loss", "trainer.loss")
    span(pipeline, "finetune_genome", "trainer.finetune")
    span(trainer, "evaluate_genome", "trainer.evaluate")
    span(pipeline, "evaluate_genome", "trainer.evaluate")
    span(trainer, "score_outputs", "metrics.score")
    span(network, "active_channel_mask", "sparsity.mask")
    span(trainer, "prox_step", "sparsity.prox_step")
    span(trainer, "plan_epoch", "fairness.plan_epoch")

    span(GanOracle, "evaluate", "oracles.evaluate")
    span(GanOracle, "_fitness", "oracles.miss")
    span(GanOracle, "path_score", "oracles.path_score")
    span(oracles, "genome_cost", "costs.genome_cost")
    span(network, "require_valid", "space.require_valid")
    span(evolution, "require_valid", "space.require_valid")
    span(evolution, "compute_rg", "evolution.compute_rg")

    span(pipeline, "run_search", "pipeline.search")
    span(pipeline, "search_path", "pipeline.path")
    span(pipeline, "search_operators", "pipeline.operator")
    span(pipeline, "shrink_channels", "evolution.shrink")
    span(pipeline, "joint_search_baseline", "pipeline.joint")
    span(reporting, "report_pipeline", "reporting.write", report_after)


# Per-layer metrics: name -> (unit, better).  Totals over one traced pass.
LAYER_METRICS = {
    "engine.conv1d.calls": ("count", "lower"),
    "engine.conv1d.s": ("s", "lower"),
    "engine.conv1d.gflops": ("GFLOP/s", "higher"),
    "engine.conv1d.computed_madds": ("count", "lower"),
    "engine.conv1d.computed_mb": ("MB", "lower"),
    "engine.dwconv1d.calls": ("count", "lower"),
    "engine.dwconv1d.s": ("s", "lower"),
    "engine.dwconv1d.computed_madds": ("count", "lower"),
    "engine.dwconv1d.computed_mb": ("MB", "lower"),
    "engine.pointwise.calls": ("count", "lower"),
    "engine.pointwise.s": ("s", "lower"),
    "engine.pointwise.computed_madds": ("count", "lower"),
    "engine.rms_norm.calls": ("count", "lower"),
    "engine.rms_norm.s": ("s", "lower"),
    "engine.resample.calls": ("count", "lower"),
    "engine.resample.s": ("s", "lower"),
    "engine.backward.calls": ("count", "lower"),
    "engine.backward.s": ("s", "lower"),
    "engine.graph_nodes": ("count", "lower"),
    "network.generator.calls": ("count", "lower"),
    "network.generator.s": ("s", "lower"),
    "network.discriminator.calls": ("count", "lower"),
    "network.discriminator.s": ("s", "lower"),
    "network.sgd_step.calls": ("count", "lower"),
    "network.sgd_step.s": ("s", "lower"),
    "network.checkpoint_save.s": ("s", "lower"),
    "network.checkpoint_load.s": ("s", "lower"),
    "network.checkpoint.bytes": ("bytes", "lower"),
    "trainer.pretrain.s": ("s", "lower"),
    "trainer.pretrain.epochs_per_s": ("1/s", "higher"),
    "trainer.loss.calls": ("count", "lower"),
    "trainer.loss.s": ("s", "lower"),
    "trainer.finetune.s": ("s", "lower"),
    "trainer.evaluate.calls": ("count", "lower"),
    "trainer.evaluate.s": ("s", "lower"),
    "metrics.score.calls": ("count", "lower"),
    "metrics.score.s": ("s", "lower"),
    "sparsity.mask.calls": ("count", "lower"),
    "sparsity.mask.s": ("s", "lower"),
    "sparsity.prox_step.calls": ("count", "lower"),
    "sparsity.prox_step.s": ("s", "lower"),
    "sparsity.zero_fraction": ("ratio", "higher"),
    "fairness.plan_epoch.calls": ("count", "lower"),
    "fairness.plan_epoch.s": ("s", "lower"),
    "oracles.lookups": ("count", "lower"),
    "oracles.unique_evals": ("count", "lower"),
    "oracles.hit_ratio": ("ratio", "higher"),
    "oracles.miss.s": ("s", "lower"),
    "oracles.path_score.calls": ("count", "lower"),
    "oracles.path_score.s": ("s", "lower"),
    "evolution.shrink.s": ("s", "lower"),
    "evolution.self.s": ("s", "lower"),
    "evolution.rg_refreshes": ("count", "lower"),
    "evolution.rg_staleness": ("generations", "lower"),
    "evolution.feasible_draw_ratio": ("ratio", "higher"),
    "evolution.generations": ("count", "lower"),
    "costs.genome_cost.calls": ("count", "lower"),
    "costs.genome_cost.s": ("s", "lower"),
    "space.require_valid.calls": ("count", "lower"),
    "space.require_valid.s": ("s", "lower"),
    "pipeline.path.s": ("s", "lower"),
    "pipeline.operator.s": ("s", "lower"),
    "pipeline.channel.s": ("s", "lower"),
    "pipeline.joint.s": ("s", "lower"),
    "reporting.write.s": ("s", "lower"),
    "reporting.bytes": ("bytes", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tr: Tracer, searches: list[dict], overhead: float) -> dict[str, float]:
    """Per-layer metric values from the tracer and the client's search records."""
    v: dict[str, float] = {}
    for name in (
        "engine.conv1d", "engine.dwconv1d", "engine.pointwise", "engine.rms_norm",
        "engine.resample", "engine.backward", "network.generator",
        "network.discriminator", "network.sgd_step", "trainer.loss", "trainer.evaluate",
        "metrics.score", "sparsity.mask", "sparsity.prox_step", "fairness.plan_epoch",
        "oracles.path_score", "costs.genome_cost", "space.require_valid",
    ):
        v[f"{name}.calls"], v[f"{name}.s"] = tr.total(name)
    for name in ("engine.conv1d", "engine.dwconv1d", "engine.pointwise"):
        v[f"{name}.computed_madds"] = tr.counts[f"{name}.madds"]
    for name in ("engine.conv1d", "engine.dwconv1d"):
        v[f"{name}.computed_mb"] = tr.counts[f"{name}.bytes"] / 1e6
    v["engine.conv1d.gflops"] = _ratio(2.0 * tr.counts["engine.conv1d.madds"], v["engine.conv1d.s"]) / 1e9
    v["engine.graph_nodes"] = tr.counts["engine.graph_nodes"]
    v["network.checkpoint_save.s"] = tr.total("network.checkpoint_save")[1]
    v["network.checkpoint_load.s"] = tr.total("network.checkpoint_load")[1]
    v["network.checkpoint.bytes"] = tr.counts["network.checkpoint.bytes"]
    v["trainer.pretrain.s"] = tr.total("trainer.pretrain")[1]
    v["trainer.pretrain.epochs_per_s"] = _ratio(tr.counts["trainer.epochs"], v["trainer.pretrain.s"])
    v["trainer.finetune.s"] = tr.total("trainer.finetune")[1]
    v["sparsity.zero_fraction"] = _ratio(
        tr.counts["sparsity.zero_fraction.sum"], tr.counts["sparsity.zero_fraction.n"]
    )
    lookups = sum(s["lookups"] for s in searches)
    unique = sum(s["unique"] for s in searches)
    v["oracles.lookups"] = lookups
    v["oracles.unique_evals"] = unique
    v["oracles.hit_ratio"] = _ratio(lookups - unique, lookups)
    v["oracles.miss.s"] = tr.total("oracles.miss")[1]
    v["evolution.shrink.s"] = tr.total("evolution.shrink")[1]
    v["evolution.self.s"] = (
        tr.self_seconds["evolution.shrink"] + tr.self_seconds["evolution.compute_rg"]
    )
    v["evolution.rg_refreshes"] = tr.calls["evolution.compute_rg"]
    n = len(searches)
    v["evolution.rg_staleness"] = _ratio(sum(s["staleness"] for s in searches), n)
    fractions = [f for s in searches for f in s["feasible"]]
    v["evolution.feasible_draw_ratio"] = _ratio(sum(fractions), len(fractions))
    v["evolution.generations"] = _ratio(sum(s["generations"] for s in searches), n)
    v["pipeline.path.s"] = tr.total("pipeline.path")[1]
    v["pipeline.operator.s"] = tr.total("pipeline.operator")[1]
    v["pipeline.channel.s"] = (
        tr.total("pipeline.search")[1] - v["pipeline.path.s"] - v["pipeline.operator.s"]
    )
    v["pipeline.joint.s"] = tr.total("pipeline.joint")[1]
    v["reporting.write.s"] = tr.total("reporting.write")[1]
    v["reporting.bytes"] = tr.counts["reporting.bytes"]
    v["trace_overhead"] = overhead
    missing = set(LAYER_METRICS) ^ set(v)
    if missing:
        raise RuntimeError(f"per-layer metric table and values disagree: {sorted(missing)}")
    return v
