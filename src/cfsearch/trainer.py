"""Adversarial supernet pretraining with a fair schedule, plus evaluation.

One epoch works through every path in a random order.  A path's cycle
accumulates gradients over M single-operator sub-networks (one per
candidate, drawn as a per-layer permutation so each candidate trains
exactly once), applies a single generator descent step, then updates the
path's channel scale factors by one proximal step on the smooth loss,
and finally takes one ascent-equivalent step on the matched
discriminator.  The cycle structure is what makes the fairness ledger
counts exact rather than statistical.

Each step computes only the gradients it applies: inside
``SupernetWeights.train_only``, the generator passes train the path's
``g/p{p}/`` weights without its scale factors, the proximal pass trains
the path's scale factors (``bank.gammas``) alone, and the discriminator
step trains the matched ``d/{d}/`` weights alone.  Fine-tuning trains
the same generator and discriminator sets.  Every other tensor is
frozen during a step, so no backward pass computes a gradient that the
step would discard.

The training objective combines an adversarial term with reconstruction
(mean absolute error), a perceptual proxy (squared distance between
fixed random linear features), and an L1 sparsity value over the scale
factors; the sparsity term is reported in the total but enters
optimization only through the proximal update.  The smooth part of the
loss, and the discriminator's loss, are each one graph node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping

import numpy as np

from .engine import Tensor, mean, sigmoid
from .errors import ConfigError, NonFiniteLossError, ShapeError
from .fairness import FairnessLedger, plan_epoch
from .metrics import covariance_root, gaussian_moments, moment_distance, psnr
from .network import DiscriminatorView, StageTrail, SupernetWeights, mixed_view, subnet_view
from .space import ArchitectureGenome, SupernetSpec, maximal_genome
from .sparsity import ScaleFactorBank, prox_step
from .util import child_seed

TASK_TRANSLATION = "translation"
TASK_SUPER_RESOLUTION = "super_resolution"

# Default seed of the frozen perceptual projection; independent of the
# run seed so the feature map is a fixed measuring stick, not a sample.
PERCEPTUAL_SEED = 90210


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of supernet pretraining.

    The loss weights default to the combination that worked across the
    toy tasks: reconstruction 10, perceptual 100, sparsity 1e-3.
    ``lr_weights`` is the descent stepsize for network weights and
    ``lr_gamma`` the proximal stepsize for scale factors; both decay by
    ``lr_decay`` per epoch.
    """

    epochs: int
    batch_size: int = 8
    lambda_recon: float = 10.0
    lambda_perceptual: float = 100.0
    lambda_sparsity: float = 1e-3
    lr_weights: float = 0.001
    lr_gamma: float = 0.002
    lr_decay: float = 1.0
    perceptual_features: int = 16
    perceptual_seed: int = PERCEPTUAL_SEED

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("lambda_recon", "lambda_perceptual", "lambda_sparsity"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.lr_weights <= 0 or self.lr_gamma <= 0 or not 0 < self.lr_decay <= 1:
            raise ConfigError("learning rates must be positive, decay in (0, 1]")
        if self.perceptual_features < 1:
            raise ConfigError("perceptual_features must be >= 1")


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
    def val_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of the flattened validation targets, made once."""
        return gaussian_moments(self.val_y.reshape(self.val_y.shape[0], -1))

    @cached_property
    def val_cov_root(self) -> np.ndarray:
        """``covariance_root`` of the validation covariance, made once."""
        return covariance_root(self.val_moments[1])


def make_translation_dataset(
    samples: int = 256, val_fraction: float = 0.25, seed: int = 0
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
    x = x[:, :, None]
    y = y[:, :, None]
    n_val = max(2, int(round(samples * val_fraction)))
    n_train = samples - n_val
    if n_train < 2:
        raise ConfigError("translation dataset too small for the requested split")
    return ToyDataset(
        TASK_TRANSLATION, x[:n_train], y[:n_train], x[n_train:], y[n_train:]
    )


def make_super_resolution_dataset(
    samples: int = 256, val_fraction: float = 0.25, seed: int = 0
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
    x = y[:, :, ::4]
    n_val = max(2, int(round(samples * val_fraction)))
    n_train = samples - n_val
    if n_train < 2:
        raise ConfigError("super-resolution dataset too small for the requested split")
    return ToyDataset(
        TASK_SUPER_RESOLUTION, x[:n_train], y[:n_train], x[n_train:], y[n_train:]
    )


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
    """Total loss, its smooth part, and the component values.

    ``smooth`` omits the sparsity term: the L1 penalty is handled exactly
    by the proximal update, so gradients flow only through the smooth
    terms.  ``total`` includes it for reporting and is what the loss
    value means.
    """

    total: Tensor
    smooth: Tensor
    components: dict[str, float]


def total_loss(
    output: Tensor,
    target: Tensor,
    d_scores: Tensor,
    bank: ScaleFactorBank,
    cfg: TrainConfig,
) -> LossBundle:
    """Combined training loss for one generator forward pass.

    ``smooth`` is one graph node over ``output`` and ``d_scores``; the
    target is a constant.  Its forward and backward do the same float
    operations in the same order as the chain of engine ops they replace,
    ``mean(softplus(-d_scores)) + lambda_recon * mean(|output - target|)
    + lambda_perceptual * mean((output @ P - target @ P)**2)`` with the
    frozen projection ``P``, so results are bit-identical to that chain.
    ``total`` adds the sparsity value and records no graph.
    """
    if output.data.shape != target.data.shape:
        raise ShapeError(
            f"generator output {output.data.shape} does not match target "
            f"{target.data.shape}"
        )
    out_shape = output.data.shape
    batch = out_shape[0]
    dim = out_shape[1] * out_shape[2]
    projection = perceptual_projection(dim, cfg.perceptual_features, cfg.perceptual_seed)
    neg_scores = -d_scores.data
    adversarial = mean(np.logaddexp(0.0, neg_scores))
    diff = output.data - target.data
    reconstruction = mean(np.abs(diff))
    features = output.data.reshape(batch, dim) @ projection
    feature_diff = features - target.data.reshape(batch, dim) @ projection
    perceptual = mean(feature_diff * feature_diff)
    smooth_value = (
        adversarial + reconstruction * cfg.lambda_recon
    ) + perceptual * cfg.lambda_perceptual

    def backward(g: np.ndarray):
        g_output = g_scores = None
        if output.requires_grad:
            g_features = g * cfg.lambda_perceptual / feature_diff.size * 2.0 * feature_diff
            g_recon = g * cfg.lambda_recon / diff.size * np.sign(diff)
            g_output = (g_features @ projection.T).reshape(out_shape) + g_recon
        if d_scores.requires_grad:
            g_scores = -(g / neg_scores.size * sigmoid(neg_scores))
        return g_output, g_scores

    smooth = Tensor._make(np.asarray(smooth_value), (output, d_scores), backward)
    sparsity_value = bank.l1_value()
    total = Tensor(smooth_value + cfg.lambda_sparsity * sparsity_value)
    components = {
        "gan": float(adversarial),
        "recon": float(reconstruction),
        "perceptual": float(perceptual),
        "sparsity": sparsity_value,
        "total": total.item(),
    }
    return LossBundle(total=total, smooth=smooth, components=components)


def _check_finite(value: float, context: str, components: Mapping[str, float]) -> None:
    if not np.isfinite(value):
        detail = ", ".join(f"{k}={v!r}" for k, v in components.items())
        raise NonFiniteLossError(f"non-finite loss during {context}: {detail}")


def discriminator_loss(real_scores: Tensor, fake_scores: Tensor) -> Tensor:
    """Descent form of the adversarial objective for the discriminator.

    ``mean(softplus(-real_scores)) + mean(softplus(fake_scores))`` as one
    graph node, bit-identical to that chain of engine ops.
    """
    neg_real = -real_scores.data
    fake = fake_scores.data
    value = mean(np.logaddexp(0.0, neg_real)) + mean(np.logaddexp(0.0, fake))

    def backward(g: np.ndarray):
        g_real = g_fake = None
        if real_scores.requires_grad:
            g_real = -(g / neg_real.size * sigmoid(neg_real))
        if fake_scores.requires_grad:
            g_fake = g / fake.size * sigmoid(fake)
        return g_real, g_fake

    return Tensor._make(np.asarray(value), (real_scores, fake_scores), backward)


# -- pretraining -------------------------------------------------------------


@dataclass
class PretrainResult:
    weights: SupernetWeights
    banks: list[ScaleFactorBank]
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
    for p, path in enumerate(spec.paths):
        out_sites = int(path.resolution_schedule[-1] * spec.input_sites)
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
    banks = [
        ScaleFactorBank(
            gammas=weights.gamma_tensors(p),
            learning_rate=cfg.lr_gamma,
            sparsity_weight=cfg.lambda_sparsity,
            lr_decay=cfg.lr_decay,
        )
        for p in range(spec.num_paths)
    ]
    gamma_count = sum(g.data.size for b in banks for g in b.gammas)
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
            d = path.matched_discriminator_path
            disc = DiscriminatorView(weights, d)
            bank = banks[p]

            # Accumulate generator gradients over one operator per layer
            # per sub-network, covering every candidate exactly once; each
            # sub-network runs at maximal widths and depths.
            component_sums: dict[str, float] = {}
            widest = maximal_genome(spec, p)
            generator = (t for _, t in weights.named(f"g/p{p}/", include_gamma=False))
            with weights.train_only(generator):
                for m in range(path.num_operators):
                    assignment = tuple(
                        plan.operator_orders[p][l][m] for l in range(path.num_layers)
                    )
                    gen = subnet_view(weights, replace(widest, operator_assignment=assignment))
                    out = gen(x)
                    bundle = total_loss(out, y, disc(out), bank, cfg)
                    _check_finite(
                        bundle.components["total"],
                        f"epoch {t} path {p} operators {assignment}",
                        bundle.components,
                    )
                    bundle.smooth.backward()
                    for key, value in bundle.components.items():
                        component_sums[key] = component_sums.get(key, 0.0) + value
                weights.sgd_step(f"g/p{p}/", alpha, include_gamma=False)
            ledger.record_generator_cycle(p)

            # One proximal step on the scale factors, from the full-path
            # mixture loss.
            mixed = mixed_view(weights, p)
            trail = StageTrail()
            with weights.train_only(bank.gammas):
                out = mixed(x, trail)
                bundle = total_loss(out, y, disc(out), bank, cfg)
                _check_finite(
                    bundle.components["total"], f"epoch {t} path {p} mixture", bundle.components
                )
                bundle.smooth.backward()
                gamma_grads = [
                    g.grad if g.grad is not None else np.zeros_like(g.data)
                    for g in bank.gammas
                ]
                prox_step(bank, gamma_grads, t)

            # Discriminator step on the refreshed mixture output; the frozen
            # generator gives ``fake`` no graph.  The proximal step moved only
            # the scale factors, which first enter at layer 0's norm, so the
            # forward resumes after the stem and layer 0's block core.
            trail.cut(2)
            with weights.train_only(t for _, t in weights.named(f"d/{d}/")):
                fake = mixed(x, trail)
                d_value = discriminator_loss(disc(y), disc(fake))
                _check_finite(
                    d_value.item(), f"epoch {t} path {p} discriminator", {"d_loss": d_value.item()}
                )
                d_value.backward()
                weights.sgd_step(f"d/{d}/", alpha)
            ledger.record_discriminator_update(p)

            n = path.num_operators
            zero_frac = sum(b.zero_count() for b in banks) / gamma_count
            metrics.append(
                {
                    "epoch": t,
                    "path": p,
                    "loss_total": component_sums["total"] / n,
                    "loss_gan": component_sums["gan"] / n,
                    "loss_recon": component_sums["recon"] / n,
                    "loss_perceptual": component_sums["perceptual"] / n,
                    "loss_sparsity": component_sums["sparsity"] / n,
                    "d_loss": d_value.item(),
                    "gamma_zero_fraction": zero_frac,
                }
            )
    return PretrainResult(weights=weights, banks=banks, ledger=ledger, metrics=metrics)


# -- evaluation and fine-tuning ---------------------------------------------


def score_outputs(out: np.ndarray, dataset: ToyDataset) -> float:
    """Task fitness of generated validation outputs; higher is better.

    Translation scores the negated Fréchet moment distance between the
    generated set and the target validation set; super-resolution scores
    PSNR against the reference signals (capped, see metrics module).
    """
    if dataset.task == TASK_TRANSLATION:
        flat_out = out.reshape(out.shape[0], -1)
        return -moment_distance(
            gaussian_moments(flat_out), dataset.val_moments, dataset.val_cov_root
        )
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

    A ``trail`` lets the forward resume from the stages this genome
    shares with the last one evaluated with it (see ``StageTrail``).
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
    """Adversarially fine-tune one subnet in place; sparsity disabled.

    Operates on ``weights`` directly (callers clone the supernet first if
    they need the original), keeps the scale factors frozen, and returns
    per-epoch loss rows.
    """
    cfg_ft = replace(cfg, lambda_sparsity=0.0)
    p = genome.path_index
    d = weights.spec.paths[p].matched_discriminator_path
    bank = ScaleFactorBank(
        gammas=weights.gamma_tensors(p),
        learning_rate=cfg.lr_gamma,
        sparsity_weight=0.0,
        lr_decay=cfg.lr_decay,
    )
    gen = subnet_view(weights, genome)
    disc = DiscriminatorView(weights, d)
    generator = [t for _, t in weights.named(f"g/p{p}/", include_gamma=False)]
    discriminator = [t for _, t in weights.named(f"d/{d}/")]
    rng_data = np.random.default_rng(child_seed(seed, "finetune"))
    rows: list[dict] = []
    for t in range(epochs):
        batch_idx = rng_data.choice(dataset.n_train, size=cfg.batch_size, replace=False)
        x = Tensor(dataset.train_x[batch_idx])
        y = Tensor(dataset.train_y[batch_idx])
        with weights.train_only(generator):
            out = gen(x)
            bundle = total_loss(out, y, disc(out), bank, cfg_ft)
            _check_finite(bundle.components["total"], f"fine-tune epoch {t}", bundle.components)
            bundle.smooth.backward()
            weights.sgd_step(f"g/p{p}/", cfg.lr_weights * cfg.lr_decay**t)
        with weights.train_only(discriminator):
            fake = gen(x)
            d_value = discriminator_loss(disc(y), disc(fake))
            d_value.backward()
            weights.sgd_step(f"d/{d}/", cfg.lr_weights * cfg.lr_decay**t)
        rows.append(
            {"epoch": t, "loss_total": bundle.components["total"], "d_loss": d_value.item()}
        )
    return rows
