"""Adversarial supernet pretraining with a fair schedule, plus evaluation.

One epoch works through every path in a random order.  A path's cycle
sums gradients over M single-operator sub-networks (one per candidate,
drawn as a per-layer permutation so each candidate trains exactly once)
in one pass and one backward walk.  That walk feeds a single generator
descent step, one proximal step on the path's channel scale factors,
which take no descent step, and one ascent-equivalent step on the path's
own discriminator, which scores the pass's outputs as its fakes.  The
cycle structure is what makes the fairness ledger counts exact rather
than statistical.

The M sub-networks run as one stacked pass: the path's stem runs once,
each sub-network runs its own layers on the stem's output, and their
outputs are stacked along the batch for one head, one frozen
discriminator, one loss node and one backward walk.  The loss is the sum
of the M sub-networks' losses, each with its own batch's sizes, so the
step applies what M separate passes would accumulate, up to rounding.
The discriminator step scores the real batch and the M stacked fakes in
one batch.

Each step computes only the gradients it applies: inside
``SupernetWeights.train_only``, the stacked pass trains the path's
``g/p{p}/`` weights with its scale factors, and the discriminator step
trains the path's ``d/{p}/`` weights alone.  Fine-tuning trains the
generator without its scale factors, then the discriminator on the
generator's output from before its step.  Every tensor is frozen outside
the step that trains it, so no pass builds a graph or computes a
gradient that no step applies.

The training objective combines an adversarial term with reconstruction
(mean absolute error), a perceptual proxy (squared distance between
fixed random linear features), and an L1 sparsity value over the scale
factors that ``total_loss`` is given (fine-tuning gives none); the
sparsity term is reported in the total but enters optimization only
through the proximal update.  The smooth part of the loss, and the
discriminator's loss, are each one graph node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .configs import CONFIG_KEYS, TASK_SUPER_RESOLUTION, TASK_TRANSLATION, check_fields
from .engine import Tensor, mean, sigmoid
from .errors import ConfigError, NonFiniteLossError, ShapeError
from .fairness import FairnessLedger, plan_epoch
from .metrics import MomentReference, gaussian_moments, moment_distance, moment_reference, psnr
from .network import DiscriminatorView, StageTrail, SupernetWeights, stacked_forward, subnet_view
from .space import ArchitectureGenome, SupernetSpec, maximal_genome
from .sparsity import l1_value, prox_step
from .util import child_seed


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of supernet pretraining: the ``train`` rows of ``CONFIG_KEYS``."""

    epochs: int = CONFIG_KEYS["train.epochs"].default
    batch_size: int = CONFIG_KEYS["train.batch_size"].default
    lambda_recon: float = CONFIG_KEYS["train.lambda_recon"].default
    lambda_perceptual: float = CONFIG_KEYS["train.lambda_perceptual"].default
    lambda_sparsity: float = CONFIG_KEYS["train.lambda_sparsity"].default
    lr_weights: float = CONFIG_KEYS["train.lr_weights"].default
    lr_gamma: float = CONFIG_KEYS["train.lr_gamma"].default
    lr_decay: float = CONFIG_KEYS["train.lr_decay"].default
    perceptual_features: int = CONFIG_KEYS["train.perceptual_features"].default
    perceptual_seed: int = CONFIG_KEYS["train.perceptual_seed"].default

    def __post_init__(self) -> None:
        check_fields(self, "train")


@dataclass
class ToyDataset:
    """Paired samples as (n, channels, sites) arrays with a held-out split."""

    task: str
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]

    @cached_property
    def val_moments(self) -> MomentReference:
        """Mean and covariance of the flattened validation targets, prepared once."""
        return moment_reference(gaussian_moments(self.val_y.reshape(self.val_y.shape[0], -1)))


def make_translation_dataset(
    samples: int, val_fraction: float, seed: int = 0
) -> ToyDataset:
    """Two-component Gaussian mixture mapped by a fixed style transform.

    Inputs are 2-D points from the source mixture; targets apply a
    rotation, a contraction, and a shift, giving a paired translation
    problem whose target distribution is known exactly.
    """
    rng = np.random.default_rng(seed)
    centers = np.array([[-1.0, -0.5], [1.0, 0.5]])
    component = rng.integers(0, 2, size=samples)
    x = centers[component] + 0.3 * rng.normal(size=(samples, 2))
    angle = np.deg2rad(35.0)
    rotation = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    )
    y = 0.8 * x @ rotation.T + np.array([0.3, -0.2])
    return _split(TASK_TRANSLATION, x[:, :, None], y[:, :, None], val_fraction)


def make_super_resolution_dataset(
    samples: int, val_fraction: float, seed: int = 0
) -> ToyDataset:
    """Smooth 16-sample signals paired with their 4-sample decimations."""
    rng = np.random.default_rng(seed)
    t = np.arange(16) / 16.0
    freqs = np.array([1.0, 2.0, 3.0])
    amps = rng.uniform(-1.0, 1.0, size=(samples, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(samples, 3))
    y = np.einsum(
        "nf,nft->nt", amps, np.sin(2.0 * np.pi * freqs[None, :, None] * t + phases[:, :, None])
    )
    peak = np.maximum(1.0, np.abs(y).max(axis=1, keepdims=True))
    y = y / peak
    y = y[:, None, :]
    return _split(TASK_SUPER_RESOLUTION, y[:, :, ::4], y, val_fraction)


def _split(task: str, x: np.ndarray, y: np.ndarray, val_fraction: float) -> ToyDataset:
    """The pairs split in order: the last ``val_fraction`` of them, at least 2, validate."""
    samples = len(x)
    n_val = max(2, int(round(samples * val_fraction)))
    n_train = samples - n_val
    if n_train < 2:
        raise ConfigError(
            f"dataset.samples {samples} at dataset.val_fraction {val_fraction} "
            f"leaves {n_train} training samples; at least 2 are needed"
        )
    return ToyDataset(task, x[:n_train], y[:n_train], x[n_train:], y[n_train:])


def make_dataset(task: str, samples: int, val_fraction: float, seed: int) -> ToyDataset:
    if task == TASK_TRANSLATION:
        return make_translation_dataset(samples, val_fraction, seed)
    if task == TASK_SUPER_RESOLUTION:
        return make_super_resolution_dataset(samples, val_fraction, seed)
    raise ConfigError(f"unknown task {task!r}")


# -- loss --------------------------------------------------------------------

_PROJECTION_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def perceptual_projection(dim: int, features: int, seed: int) -> np.ndarray:
    """The frozen random linear feature map, cached per (dim, F, seed)."""
    key = (dim, features, seed)
    cached = _PROJECTION_CACHE.get(key)
    if cached is None:
        rng = np.random.default_rng(seed)
        cached = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, features))
        _PROJECTION_CACHE[key] = cached
    return cached


@dataclass
class LossBundle:
    """The smooth loss node and the component values.

    ``smooth`` omits the sparsity term: the L1 penalty is handled exactly
    by the proximal update, so gradients flow only through the smooth
    terms.  Each component set's ``total`` includes it and is what the
    loss value means.  ``blocks`` holds each block's components and
    ``components`` their sums over the blocks.
    """

    smooth: Tensor
    components: dict[str, float]
    blocks: list[dict[str, float]]


def total_loss(
    output: Tensor,
    target: Tensor,
    d_scores: Tensor,
    gammas: Sequence[Tensor],
    cfg: TrainConfig,
) -> LossBundle:
    """Combined training loss of one or more generator outputs for ``target``.

    ``output`` stacks blocks of ``target``'s rows along the batch, one per
    generator, and ``d_scores`` scores each output row.  The loss is the
    sum of the blocks' losses, each computed with the block's own sizes as
    if it ran alone, so each row's gradient is what a separate pass gives.

    ``smooth`` is one graph node over ``output`` and ``d_scores``; the
    target is a constant.  On one block its forward and backward do the
    same float operations in the same order as the chain of elementary
    ops they replace, ``mean(softplus(-d_scores)) + lambda_recon *
    mean(|output - target|) + lambda_perceptual * mean((output @ P -
    target @ P)**2)`` with the frozen projection ``P``, so results are
    bit-identical to that chain.  Each block's ``total`` adds the L1
    value of ``gammas``, weighted by ``lambda_sparsity``, and records no
    graph.
    """
    out_shape = output.data.shape
    batch = target.data.shape[0]
    if out_shape[1:] != target.data.shape[1:] or out_shape[0] % batch:
        raise ShapeError(
            f"generator output {out_shape} does not stack blocks of target "
            f"{target.data.shape}"
        )
    blocks = out_shape[0] // batch
    dim = out_shape[1] * out_shape[2]
    projection = perceptual_projection(dim, cfg.perceptual_features, cfg.perceptual_seed)
    neg_scores = -d_scores.data.reshape(blocks, batch, -1)
    softplus = np.logaddexp(0.0, neg_scores)
    diff = output.data.reshape(blocks, *target.data.shape) - target.data
    abs_diff = np.abs(diff)
    features = output.data.reshape(blocks * batch, dim) @ projection
    target_features = target.data.reshape(batch, dim) @ projection
    feature_diff = features.reshape(blocks, batch, -1) - target_features
    squared = feature_diff * feature_diff
    sparsity_value = l1_value(gammas)
    smooth_values = []
    block_components = []
    for m in range(blocks):
        adversarial = mean(softplus[m])
        reconstruction = mean(abs_diff[m])
        perceptual = mean(squared[m])
        smooth_m = (
            adversarial + reconstruction * cfg.lambda_recon
        ) + perceptual * cfg.lambda_perceptual
        smooth_values.append(smooth_m)
        block_components.append(
            {
                "gan": float(adversarial),
                "recon": float(reconstruction),
                "perceptual": float(perceptual),
                "sparsity": sparsity_value,
                "total": float(smooth_m + cfg.lambda_sparsity * sparsity_value),
            }
        )
    smooth_value = sum(smooth_values)

    def backward(g: np.ndarray):
        g_output = g_scores = None
        if output.requires_grad:
            g_features = g * cfg.lambda_perceptual / squared[0].size * 2.0 * feature_diff
            g_recon = g * cfg.lambda_recon / abs_diff[0].size * np.sign(diff)
            g_output = (g_features.reshape(blocks * batch, -1) @ projection.T).reshape(
                out_shape
            ) + g_recon.reshape(out_shape)
        if d_scores.requires_grad:
            g_scores = -(g / softplus[0].size * sigmoid(neg_scores)).reshape(d_scores.data.shape)
        return g_output, g_scores

    smooth = Tensor._make(np.asarray(smooth_value), (output, d_scores), backward)
    components = {
        key: sum(c[key] for c in block_components) for key in block_components[0]
    }
    return LossBundle(smooth=smooth, components=components, blocks=block_components)


def _check_finite(value: float, context: str, components: Mapping[str, float]) -> None:
    if not np.isfinite(value):
        detail = ", ".join(f"{k}={v!r}" for k, v in components.items())
        raise NonFiniteLossError(f"non-finite loss during {context}: {detail}")


def discriminator_loss(scores: Tensor, real_rows: int) -> Tensor:
    """Descent form of the adversarial objective for the discriminator.

    ``scores`` stacks the scores of ``real_rows`` real samples over those
    of the fake ones.  ``mean(softplus(-real_scores)) +
    mean(softplus(fake_scores))`` as one graph node, bit-identical to that
    chain of elementary ops on the two parts.
    """
    neg_real = -scores.data[:real_rows]
    fake = scores.data[real_rows:]
    value = mean(np.logaddexp(0.0, neg_real)) + mean(np.logaddexp(0.0, fake))

    def backward(g: np.ndarray):
        g_scores = np.empty(scores.data.shape)
        g_scores[:real_rows] = -(g / neg_real.size * sigmoid(neg_real))
        g_scores[real_rows:] = g / fake.size * sigmoid(fake)
        return (g_scores,)

    return Tensor._make(np.asarray(value), (scores,), backward)


def _discriminator_value(disc: DiscriminatorView, real: Tensor, fake: Tensor) -> Tensor:
    """``discriminator_loss`` of ``disc`` on constant real and fake samples, in one pass."""
    scores = disc(Tensor(np.concatenate([real.data, fake.data])))
    return discriminator_loss(scores, real.data.shape[0])


def _discriminator_step(
    disc: DiscriminatorView, real: Tensor, fake: Tensor, lr: float, context: str
) -> float:
    """One descent step of ``disc``'s own ``d/{p}/`` weights on constant samples; its loss.

    Only the samples' values are read, so ``fake`` may be the output of a
    generator pass that has since taken its step; no gradient reaches the
    generator.  A non-finite loss raises ``NonFiniteLossError`` naming
    ``context``.
    """
    weights, prefix = disc.weights, f"d/{disc.disc_index}/"
    with weights.train_only(t for _, t in weights.named(prefix)):
        loss = _discriminator_value(disc, real, fake)
        value = loss.item()
        _check_finite(value, context, {"d_loss": value})
        loss.backward()
        weights.sgd_step(prefix, lr)
    return value


# -- pretraining -------------------------------------------------------------


@dataclass
class PretrainResult:
    weights: SupernetWeights
    ledger: FairnessLedger
    metrics: list[dict] = field(default_factory=list)


def gamma_zero_stats(weights: SupernetWeights) -> tuple[int, float]:
    """(count, fraction) of exactly-zero scale factors across all paths."""
    gammas = [g for p in range(weights.spec.num_paths) for g in weights.gamma_tensors(p)]
    zeros = sum(int(np.count_nonzero(g.data == 0.0)) for g in gammas)
    return zeros, zeros / sum(g.data.size for g in gammas)


def _validate_shapes(spec: SupernetSpec, dataset: ToyDataset, cfg: TrainConfig) -> None:
    channels, sites = dataset.train_x.shape[1], dataset.train_x.shape[2]
    if (channels, sites) != (spec.input_channels, spec.input_sites):
        raise ConfigError(
            f"dataset inputs are ({channels}, {sites}) but the spec expects "
            f"({spec.input_channels}, {spec.input_sites})"
        )
    target_sites = dataset.train_y.shape[2]
    for p, sites in enumerate(spec.layer_sites):
        out_sites = sites[-1]
        if out_sites != target_sites:
            raise ConfigError(
                f"path {p} produces {out_sites} sites but targets have {target_sites}"
            )
    if cfg.batch_size > dataset.n_train:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds training set size {dataset.n_train}"
        )


def pretrain_supernet(
    spec: SupernetSpec, dataset: ToyDataset, cfg: TrainConfig, seed: int
) -> PretrainResult:
    """Train the supernet fairly for ``cfg.epochs`` epochs.

    Deterministic for a given (spec, dataset, cfg, seed); the returned
    ledger satisfies the exact fairness equalities by construction of the
    schedule, and the run aborts with diagnostics on any non-finite loss.
    """
    _validate_shapes(spec, dataset, cfg)
    weights = SupernetWeights.create(spec, child_seed(seed, "weights"))
    ledger = FairnessLedger.for_spec(spec)
    rng_plan = np.random.default_rng(child_seed(seed, "schedule"))
    rng_data = np.random.default_rng(child_seed(seed, "batches"))
    metrics: list[dict] = []

    for t in range(cfg.epochs):
        batch_idx = rng_data.choice(dataset.n_train, size=cfg.batch_size, replace=False)
        x = Tensor(dataset.train_x[batch_idx])
        y = Tensor(dataset.train_y[batch_idx])
        plan = plan_epoch(spec, rng_plan)
        alpha = cfg.lr_weights * cfg.lr_decay**t
        for p in plan.path_order:
            path = spec.paths[p]
            disc = DiscriminatorView(weights, p)
            gammas = weights.gamma_tensors(p)

            # Sub-network m runs operator m of each layer's permutation, at
            # maximal widths; all M run as one stacked pass.
            assignments = [
                tuple(plan.operator_orders[p][l][m] for l in range(path.num_layers))
                for m in range(path.num_operators)
            ]
            widest = maximal_genome(spec, p)
            views = [
                subnet_view(weights, replace(widest, operator_assignment=assignment))
                for assignment in assignments
            ]
            generator = [w for _, w in weights.named(f"g/p{p}/", include_gamma=False)]
            with weights.train_only(generator + gammas):
                out = stacked_forward(views, x)
                cycle = total_loss(out, y, disc(out), gammas, cfg)
                for assignment, block in zip(assignments, cycle.blocks):
                    _check_finite(
                        block["total"], f"epoch {t} path {p} operators {assignment}", block
                    )
                cycle.smooth.backward()
                # The proximal step consumes the scale factors' gradients,
                # so the SGD step moves the other generator weights alone.
                prox_step(gammas, cfg.lr_gamma * cfg.lr_decay**t, cfg.lambda_sparsity)
                weights.sgd_step(f"g/p{p}/", alpha)
            ledger.record_generator_cycle(p)

            # The discriminator learns from the M * B fakes of that same pass.
            d_value = _discriminator_step(disc, y, out, alpha, f"epoch {t} path {p} discriminator")
            ledger.record_discriminator_update(p)

            n = len(cycle.blocks)
            metrics.append(
                {
                    "epoch": t,
                    "path": p,
                    "loss_total": cycle.components["total"] / n,
                    "loss_gan": cycle.components["gan"] / n,
                    "loss_recon": cycle.components["recon"] / n,
                    "loss_perceptual": cycle.components["perceptual"] / n,
                    "loss_sparsity": cycle.components["sparsity"] / n,
                    "d_loss": d_value,
                    "gamma_zero_fraction": gamma_zero_stats(weights)[1],
                }
            )
    return PretrainResult(weights=weights, ledger=ledger, metrics=metrics)


# -- evaluation and fine-tuning ---------------------------------------------


def score_outputs(out: np.ndarray, dataset: ToyDataset) -> float:
    """Task fitness of generated validation outputs; higher is better.

    Translation scores the negated Fréchet moment distance between the
    generated set and the target validation set; super-resolution scores
    PSNR against the reference signals (capped, see metrics module).
    """
    if dataset.task == TASK_TRANSLATION:
        flat_out = out.reshape(out.shape[0], -1)
        return -moment_distance(gaussian_moments(flat_out), dataset.val_moments)
    if dataset.task == TASK_SUPER_RESOLUTION:
        return psnr(out, dataset.val_y)
    raise ConfigError(f"unknown task {dataset.task!r}")


def evaluate_genome(
    weights: SupernetWeights,
    genome: ArchitectureGenome,
    dataset: ToyDataset,
    trail: StageTrail | None = None,
) -> float:
    """Fitness of a genome with inherited weights; inference only.

    A ``trail`` lets the forward resume from the longest stage prefix
    this genome shares with genomes evaluated with it (see ``StageTrail``).
    """
    gen = subnet_view(weights, genome)
    out = gen(Tensor(dataset.val_x), trail).data
    return score_outputs(out, dataset)


def finetune_genome(
    weights: SupernetWeights,
    genome: ArchitectureGenome,
    dataset: ToyDataset,
    cfg: TrainConfig,
    epochs: int,
    seed: int,
) -> list[dict]:
    """Adversarially fine-tune one subnet in place, with no sparsity term.

    Operates on ``weights`` directly (callers clone the supernet first if
    they need the original), keeps the scale factors frozen and out of
    the loss, and returns per-epoch loss rows.  Any non-finite generator
    or discriminator loss raises ``NonFiniteLossError``.
    """
    p = genome.path_index
    gen = subnet_view(weights, genome)
    disc = DiscriminatorView(weights, p)
    generator = [t for _, t in weights.named(f"g/p{p}/", include_gamma=False)]
    rng_data = np.random.default_rng(child_seed(seed, "finetune"))
    rows: list[dict] = []
    for t in range(epochs):
        batch_idx = rng_data.choice(dataset.n_train, size=cfg.batch_size, replace=False)
        x = Tensor(dataset.train_x[batch_idx])
        y = Tensor(dataset.train_y[batch_idx])
        lr = cfg.lr_weights * cfg.lr_decay**t
        with weights.train_only(generator):
            out = gen(x)
            bundle = total_loss(out, y, disc(out), (), cfg)
            _check_finite(bundle.components["total"], f"fine-tune epoch {t}", bundle.components)
            bundle.smooth.backward()
            weights.sgd_step(f"g/p{p}/", lr)
        d_value = _discriminator_step(disc, y, out, lr, f"fine-tune epoch {t} discriminator")
        rows.append({"epoch": t, "loss_total": bundle.components["total"], "d_loss": d_value})
    return rows
