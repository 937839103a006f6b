"""Adversarial training loop: losses, fair pretraining, fine-tuning."""

from dataclasses import replace

import numpy as np
import pytest

from cfsearch import cli, engine, pipeline, trainer
from cfsearch.engine import (
    Tensor,
    absolute,
    finite_difference_gradient,
    mean_all,
    softplus,
    square,
)
from cfsearch.errors import ConfigError, InvariantError, NonFiniteLossError, ShapeError
from cfsearch.metrics import frechet_moment_distance
from cfsearch.network import DiscriminatorView, StageTrail, SupernetWeights, mixed_view
from cfsearch.network import stacked_forward, subnet_view
from cfsearch.space import ArchitectureGenome, maximal_genome, spec_from_dict
from cfsearch.sparsity import GAMMA_INIT, l1_value, prox_step
from cfsearch.trainer import (
    TASK_SUPER_RESOLUTION,
    TASK_TRANSLATION,
    TrainConfig,
    ToyDataset,
    discriminator_loss,
    evaluate_genome,
    finetune_genome,
    make_dataset,
    make_super_resolution_dataset,
    make_translation_dataset,
    perceptual_projection,
    pretrain_supernet,
    score_outputs,
    total_loss,
)

from conftest import build_spec


def quick_cfg(**kwargs):
    merged = dict(epochs=3, batch_size=4)
    merged.update(kwargs)
    return TrainConfig(**merged)


def scale_factors(*widths):
    """Trainable factor vectors at ``GAMMA_INIT``, one per width."""
    return [Tensor(np.full(w, GAMMA_INIT), requires_grad=True) for w in widths]


def quick_dataset(seed=0):
    return make_dataset(TASK_TRANSLATION, samples=24, val_fraction=0.25, seed=seed)


def translation_spec():
    # Matches the translation data layout: 2 input channels, 1 site.
    return build_spec(
        n_paths=2, n_layers=2, n_operators=2, channels=(2, 3),
        input_sites=1, input_channels=2,
    )


def test_dataset_shapes_and_split():
    ds = make_translation_dataset(samples=40, val_fraction=0.25, seed=1)
    assert ds.task == TASK_TRANSLATION
    assert ds.train_x.shape == (30, 2, 1)
    assert ds.val_x.shape == (10, 2, 1)
    assert ds.n_train == 30
    sr = make_super_resolution_dataset(samples=20, val_fraction=0.25, seed=1)
    assert sr.task == TASK_SUPER_RESOLUTION
    assert sr.train_x.shape[1:] == (1, 4)
    assert sr.train_y.shape[1:] == (1, 16)
    # Low-res inputs are exact decimations of the targets.
    assert np.array_equal(sr.train_x, sr.train_y[:, :, ::4])


def test_dataset_determinism_and_unknown_task():
    a = make_dataset(TASK_TRANSLATION, 24, 0.25, seed=5)
    b = make_dataset(TASK_TRANSLATION, 24, 0.25, seed=5)
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.val_y, b.val_y)
    with pytest.raises(ConfigError):
        make_dataset("colorization", 24, 0.25, seed=5)
    with pytest.raises(ConfigError):
        make_translation_dataset(samples=3, val_fraction=0.5, seed=0)


@pytest.mark.parametrize("task", [TASK_TRANSLATION, TASK_SUPER_RESOLUTION])
def test_a_split_without_two_training_samples_names_both_dataset_keys(task):
    with pytest.raises(ConfigError, match=r"dataset\.samples 4 at dataset\.val_fraction 0\.9 "):
        make_dataset(task, 4, 0.9, seed=0)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, lambda_sparsity=-1.0)


def test_perceptual_projection_frozen_and_cached():
    a = perceptual_projection(8, 16, seed=42)
    b = perceptual_projection(8, 16, seed=42)
    assert a is b
    assert a.shape == (8, 16)
    c = perceptual_projection(8, 16, seed=43)
    assert not np.array_equal(a, c)


def test_total_loss_components_add_up():
    rng = np.random.default_rng(0)
    out = Tensor(rng.normal(size=(6, 2, 1)), requires_grad=True)
    target = Tensor(rng.normal(size=(6, 2, 1)))
    scores = Tensor(rng.normal(size=(6, 1)))
    gammas = scale_factors(3, 3)
    cfg = quick_cfg()
    bundle = total_loss(out, target, scores, gammas, cfg)
    c = bundle.components
    assert set(c) == {"gan", "recon", "perceptual", "sparsity", "total"}
    # Components are stored unweighted; the total applies the lambdas.
    assert c["total"] == pytest.approx(
        c["gan"]
        + cfg.lambda_recon * c["recon"]
        + cfg.lambda_perceptual * c["perceptual"]
        + cfg.lambda_sparsity * c["sparsity"]
    )
    assert c["sparsity"] == pytest.approx(l1_value(gammas))
    # The smooth part excludes the L1 term handled by the proximal update.
    assert bundle.smooth.item() == pytest.approx(
        c["total"] - cfg.lambda_sparsity * c["sparsity"]
    )


def test_sparsity_component_scales_with_weight():
    rng = np.random.default_rng(1)
    out = Tensor(rng.normal(size=(4, 2, 1)), requires_grad=True)
    target = Tensor(rng.normal(size=(4, 2, 1)))
    scores = Tensor(rng.normal(size=(4, 1)))
    gammas = scale_factors(2)
    zero = total_loss(out, target, scores, gammas, quick_cfg(lambda_sparsity=0.0))
    # With a zero weight the L1 value is reported but does not enter the total.
    assert zero.components["total"] == pytest.approx(zero.smooth.item())
    half = total_loss(out, target, scores, gammas, quick_cfg(lambda_sparsity=0.5))
    assert half.components["total"] - half.smooth.item() == pytest.approx(
        0.5 * l1_value(gammas)
    )


def total_loss_chain(output, target, d_scores, cfg):
    """The smooth loss as the chain of engine ops that ``total_loss`` fuses."""
    adversarial = mean_all(softplus(-d_scores))
    reconstruction = mean_all(absolute(output - target))
    batch = output.data.shape[0]
    dim = output.data.shape[1] * output.data.shape[2]
    projection = Tensor(
        perceptual_projection(dim, cfg.perceptual_features, cfg.perceptual_seed)
    )
    f_out = output.reshape(batch, dim).matmul(projection)
    f_ref = target.reshape(batch, dim).matmul(projection)
    perceptual = mean_all(square(f_out - f_ref))
    return (
        adversarial
        + cfg.lambda_recon * reconstruction
        + cfg.lambda_perceptual * perceptual
    )


def discriminator_loss_chain(real_scores, fake_scores):
    return mean_all(softplus(-real_scores)) + mean_all(softplus(fake_scores))


def loss_inputs(seed, batch=5):
    rng = np.random.default_rng(seed)
    out = Tensor(rng.normal(size=(batch, 2, 3)), requires_grad=True)
    target = Tensor(rng.normal(size=(batch, 2, 3)))
    scores = Tensor(2.0 * rng.normal(size=(batch, 1)), requires_grad=True)
    return out, target, scores


# Several batch sizes and draws, because one reordered float operation
# changes the last bit for only some inputs.
BIT_CASES = pytest.mark.parametrize("seed, batch", [(s, 3 + s) for s in range(8)])


def grads_of(loss, tensors):
    for t in tensors:
        t.grad = None
    loss.backward()
    return [t.grad for t in tensors]


def assert_matches_finite_differences(fn, tensors):
    for t, grad in zip(tensors, grads_of(fn(), tensors)):
        fd = finite_difference_gradient(lambda: fn().item(), t)
        scale = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1.0)
        assert np.max(np.abs(grad - fd) / scale) < 1e-6


def test_total_loss_smooth_gradient_matches_finite_differences():
    out, target, scores = loss_inputs(2)
    gammas = scale_factors(3, 3)
    cfg = quick_cfg()
    assert_matches_finite_differences(
        lambda: total_loss(out, target, scores, gammas, cfg).smooth, [out, scores]
    )


@BIT_CASES
def test_total_loss_is_one_node_bit_identical_to_its_chain(seed, batch):
    out, target, scores = loss_inputs(seed, batch)
    gammas = scale_factors(3, 3)
    cfg = quick_cfg()
    bundle = total_loss(out, target, scores, gammas, cfg)
    assert bundle.smooth._parents == (out, scores)
    chain = total_loss_chain(out, target, scores, cfg)
    assert np.array_equal(bundle.smooth.data, chain.data)
    assert bundle.components["total"] == (chain + cfg.lambda_sparsity * l1_value(gammas)).item()
    for fused, expected in zip(
        grads_of(bundle.smooth, [out, scores]), grads_of(chain, [out, scores])
    ):
        assert np.array_equal(fused, expected)


def stacked(real, fake):
    """Real scores stacked over fake ones, as one trainable tensor."""
    return Tensor(np.concatenate([real.data, fake.data]), requires_grad=True)


def test_discriminator_loss_gradient_matches_finite_differences():
    _, _, real = loss_inputs(4)
    _, _, fake = loss_inputs(5)
    scores = stacked(real, fake)
    rows = real.data.shape[0]
    assert_matches_finite_differences(lambda: discriminator_loss(scores, rows), [scores])


@BIT_CASES
def test_discriminator_loss_is_one_node_bit_identical_to_its_chain(seed, batch):
    _, _, real = loss_inputs(seed, batch)
    _, _, fake = loss_inputs(seed + 100, batch + 1)
    scores = stacked(real, fake)
    fused = discriminator_loss(scores, batch)
    assert fused._parents == (scores,)
    chain = discriminator_loss_chain(real, fake)
    assert np.array_equal(fused.data, chain.data)
    (got,) = grads_of(fused, [scores])
    assert np.array_equal(got, np.concatenate(grads_of(chain, [real, fake])))


def test_discriminator_loss_prefers_separation():
    high, low = Tensor(np.full((4, 1), 3.0)), Tensor(np.full((4, 1), -3.0))
    confident = discriminator_loss(stacked(high, low), 4)
    confused = discriminator_loss(stacked(low, high), 4)
    assert confident.item() < confused.item()


def test_score_outputs_translation_and_sr():
    ds = quick_dataset()
    perfect = score_outputs(ds.val_y, ds)
    shifted = score_outputs(ds.val_y + 1.0, ds)
    assert perfect == pytest.approx(0.0, abs=1e-8)
    assert shifted < perfect
    sr = make_super_resolution_dataset(samples=16, val_fraction=0.5, seed=0)
    assert score_outputs(sr.val_y, sr) == 300.0
    broken = ToyDataset("nope", ds.train_x, ds.train_y, ds.val_x, ds.val_y)
    with pytest.raises(ConfigError):
        score_outputs(ds.val_y, broken)


def test_translation_score_reuses_the_validation_moments_bit_for_bit():
    ds = quick_dataset()
    out = ds.val_y * 0.9 + 0.05
    n = out.shape[0]
    expected = -frechet_moment_distance(out.reshape(n, -1), ds.val_y.reshape(n, -1))
    assert score_outputs(out, ds) == expected
    assert ds.val_moments is ds.val_moments
    assert score_outputs(out, ds) == expected


def test_pretrain_is_fair_and_finite():
    spec = translation_spec()
    ds = quick_dataset()
    result = pretrain_supernet(spec, ds, quick_cfg(), seed=3)
    assert result.ledger.is_fair()
    assert result.ledger.max_imbalance() == 0
    for counts in result.ledger.operator_counts:
        assert np.all(counts == 3)
    assert np.all(result.ledger.generator_counts == 3)
    assert np.all(result.ledger.discriminator_counts == 3)
    assert len(result.metrics) == 3 * spec.num_paths
    for row in result.metrics:
        for key in (
            "loss_total",
            "loss_gan",
            "loss_recon",
            "loss_perceptual",
            "loss_sparsity",
            "d_loss",
            "gamma_zero_fraction",
        ):
            assert np.isfinite(row[key])


def test_pretrain_determinism():
    spec = translation_spec()
    ds = quick_dataset()
    a = pretrain_supernet(spec, ds, quick_cfg(), seed=11)
    b = pretrain_supernet(spec, ds, quick_cfg(), seed=11)
    for name in a.weights.tensors:
        assert np.array_equal(a.weights.tensors[name].data, b.weights.tensors[name].data)
    c = pretrain_supernet(spec, ds, quick_cfg(), seed=12)
    assert any(
        not np.array_equal(a.weights.tensors[n].data, c.weights.tensors[n].data)
        for n in a.weights.tensors
    )


def test_pretrain_rejects_mismatched_dataset():
    spec = build_spec(input_sites=4)  # expects 1 input channel, 4 sites
    ds = quick_dataset()  # provides 2 channels, 1 site
    with pytest.raises(ConfigError):
        pretrain_supernet(spec, ds, quick_cfg(), seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pretrain_aborts_on_divergence():
    spec = translation_spec()
    ds = quick_dataset()
    with pytest.raises(NonFiniteLossError):
        pretrain_supernet(spec, ds, quick_cfg(epochs=30, lr_weights=50.0), seed=0)


def test_evaluate_genome_matches_manual_score():
    spec = translation_spec()
    ds = quick_dataset()
    result = pretrain_supernet(spec, ds, quick_cfg(), seed=3)
    genome = ArchitectureGenome(0, (0, 1), (0, 1))
    from cfsearch.network import subnet_view

    out = subnet_view(result.weights, genome)(Tensor(ds.val_x)).data
    assert evaluate_genome(result.weights, genome, ds) == pytest.approx(
        score_outputs(out, ds)
    )


def test_finetune_improves_or_moves_weights_in_place():
    spec = translation_spec()
    ds = quick_dataset()
    pre = pretrain_supernet(spec, ds, quick_cfg(epochs=4), seed=3)
    weights = pre.weights.clone()
    genome = ArchitectureGenome(1, (0, 0), (1, 1))
    gamma_before = [g.data.copy() for g in weights.gamma_tensors(1)]
    rows = finetune_genome(weights, genome, ds, quick_cfg(), epochs=5, seed=3)
    assert len(rows) == 5
    assert [row["epoch"] for row in rows] == list(range(5))
    assert all(np.isfinite(row["loss_total"]) for row in rows)
    # Scale factors stay frozen during fine-tuning.
    for before, after in zip(gamma_before, weights.gamma_tensors(1)):
        assert np.array_equal(before, after.data)
    # The right path's weights moved, the other path's did not.
    moved = any(
        not np.array_equal(weights.tensors[n].data, pre.weights.tensors[n].data)
        for n in weights.tensors
        if n.startswith("g/p1/") and "gamma" not in n
    )
    untouched = all(
        np.array_equal(weights.tensors[n].data, pre.weights.tensors[n].data)
        for n in weights.tensors
        if n.startswith("g/p0/")
    )
    assert moved and untouched


def test_finetune_rows_do_not_depend_on_the_sparsity_weight():
    spec = translation_spec()
    ds = quick_dataset()
    pre = pretrain_supernet(spec, ds, quick_cfg(), seed=3)
    genome = ArchitectureGenome(1, (0, 1), (1, 0))
    tuned = []
    for lam in (0.0, 1e6):
        weights = pre.weights.clone()
        rows = finetune_genome(weights, genome, ds, quick_cfg(lambda_sparsity=lam), 3, 5)
        tuned.append((rows, weights))
    (rows0, weights0), (rows1, weights1) = tuned
    assert rows0 == rows1
    for name, tensor in weights0.tensors.items():
        assert np.array_equal(tensor.data, weights1.tensors[name].data), name


def test_pretraining_steps_the_scale_factors_by_the_decayed_rate(monkeypatch):
    spec = translation_spec()
    steps = []

    def recorded(gammas, stepsize, sparsity_weight):
        steps.append((gammas, stepsize, sparsity_weight))
        prox_step(gammas, stepsize, sparsity_weight)

    monkeypatch.setattr(trainer, "prox_step", recorded)
    cfg = quick_cfg(epochs=3, lr_gamma=0.1, lr_decay=0.5, lambda_sparsity=0.01)
    result = pretrain_supernet(spec, quick_dataset(), cfg, seed=3)
    assert [eta for _, eta, _ in steps] == [
        eta for eta in (0.1, 0.05, 0.025) for _ in range(spec.num_paths)
    ]
    assert all(weight == 0.01 for _, _, weight in steps)
    # Each step moves one path's own factor tensors, every path once an epoch.
    owners = {id(g): p for p in range(spec.num_paths) for g in result.weights.gamma_tensors(p)}
    paths = [[owners.get(id(g)) for g in gammas] for gammas, _, _ in steps]
    expected = [[p] * path.num_layers for p, path in enumerate(spec.paths) for _ in range(3)]
    assert sorted(paths) == expected


def test_each_pretraining_row_counts_the_zero_scale_factors_of_every_path(monkeypatch):
    spec = translation_spec()
    steps = {}  # a path's first factor tensor -> proximal steps taken on that path
    zeros = []

    def zeroing(gammas, stepsize, sparsity_weight):
        prox_step(gammas, stepsize, sparsity_weight)
        k = steps[id(gammas[0])] = steps.get(id(gammas[0]), 0) + 1
        gammas[0].data[:k] = 0.0  # k zeros on this path, the other paths' unchanged
        zeros.append(sum(min(n, gammas[0].data.size) for n in steps.values()))

    monkeypatch.setattr(trainer, "prox_step", zeroing)
    result = pretrain_supernet(spec, quick_dataset(), quick_cfg(epochs=4), seed=3)
    factors = sum(g.data.size for p in range(spec.num_paths) for g in result.weights.gamma_tensors(p))
    rows = [row["gamma_zero_fraction"] for row in result.metrics]
    assert rows == [n / factors for n in zeros] and rows[-1] > rows[0] > 0.0
    assert rows[-1] == trainer.gamma_zero_stats(result.weights)[1]


def assert_frozen_without_gradients(weights):
    for name, tensor in weights.tensors.items():
        assert not tensor.requires_grad, name
        assert tensor.grad is None, name


def test_training_leaves_every_tensor_frozen_without_gradients():
    spec = translation_spec()
    ds = quick_dataset()
    pre = pretrain_supernet(spec, ds, quick_cfg(), seed=3)
    assert_frozen_without_gradients(pre.weights)
    finetune_genome(pre.weights, ArchitectureGenome(1, (0, 1), (1, 0)), ds, quick_cfg(), 2, 3)
    assert_frozen_without_gradients(pre.weights)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_loss_leaves_every_tensor_frozen_without_gradients(monkeypatch):
    created = []
    create = SupernetWeights.create

    def remember(spec, seed):
        created.append(create(spec, seed))
        return created[-1]

    monkeypatch.setattr(SupernetWeights, "create", staticmethod(remember))
    spec = translation_spec()
    ds = quick_dataset()
    with pytest.raises(NonFiniteLossError):
        pretrain_supernet(spec, ds, quick_cfg(epochs=30, lr_weights=50.0), seed=0)
    assert_frozen_without_gradients(created[0])

    weights = created[0].clone()
    weights[f"d/{spec.paths[0].matched_discriminator_path}/out/b"].data[:] = np.nan
    with pytest.raises(NonFiniteLossError):
        finetune_genome(weights, ArchitectureGenome(0, (0, 0), (1, 1)), ds, quick_cfg(), 2, 3)
    assert_frozen_without_gradients(weights)


def resampling_spec():
    """Residual and depthwise blocks, with 4 sites in, 8 after layer 0, 16 out."""
    return spec_from_dict(
        {
            "input_channels": 1,
            "input_sites": 4,
            "channel_choices": [2, 3],
            "paths": [
                {
                    "resolution_schedule": [2, 4],
                    "operators": [["res_block", "dws_block"]] * 2,
                }
            ],
        }
    )


@pytest.mark.parametrize("task", [TASK_TRANSLATION, TASK_SUPER_RESOLUTION])
def test_mixed_forward_resumed_after_the_proximal_step_is_bit_identical(task):
    spec = translation_spec() if task == TASK_TRANSLATION else resampling_spec()
    ds = make_dataset(task, samples=24, val_fraction=0.25, seed=2)
    weights = SupernetWeights.create(spec, seed=5)
    x, y = Tensor(ds.train_x[:4]), Tensor(ds.train_y[:4])
    cfg = quick_cfg()
    gammas = weights.gamma_tensors(0)
    mixed = mixed_view(weights, 0)
    disc = DiscriminatorView(weights, spec.paths[0].matched_discriminator_path)
    trail = StageTrail()
    with weights.train_only(gammas):
        before = mixed(x, trail)
        total_loss(before, y, disc(before), gammas, cfg).smooth.backward()
        prox_step(gammas, cfg.lr_gamma, cfg.lambda_sparsity)
    stem, core = (trail.entries[key][2] for key in trail.chain[:2])
    trail.cut(2)
    resumed = mixed(x, trail)
    stored = [trail.entries[key][2] for key in trail.chain[:2]]
    assert stored[0] is stem and stored[1] is core
    assert np.array_equal(resumed.data, mixed(x).data)
    assert not np.array_equal(resumed.data, before.data)


def test_pretraining_resumes_the_discriminator_forward_bit_for_bit(monkeypatch):
    spec = translation_spec()
    ds = quick_dataset()
    resumed = pretrain_supernet(spec, ds, quick_cfg(), seed=4)

    class RecomputingTrail(StageTrail):
        def cut(self, stages):
            super().cut(0)

    monkeypatch.setattr(trainer, "StageTrail", RecomputingTrail)
    recomputed = pretrain_supernet(spec, ds, quick_cfg(), seed=4)
    for name, tensor in resumed.weights.tensors.items():
        assert np.array_equal(tensor.data, recomputed.weights.tensors[name].data)
    assert resumed.metrics == recomputed.metrics


def assert_relatively_close(actual, expected, tol=1e-12):
    scale = max(np.max(np.abs(expected)), 1e-300)
    assert np.max(np.abs(np.asarray(actual) - expected)) <= tol * scale


def fair_cycle_views(weights, p):
    """One sub-network per operator; layer l of sub-network m runs operator (m + l) mod M."""
    spec = weights.spec
    path = spec.paths[p]
    widest = maximal_genome(spec, p)
    return [
        subnet_view(
            weights,
            replace(
                widest,
                operator_assignment=tuple(
                    (m + l) % path.num_operators for l in range(path.num_layers)
                ),
            ),
        )
        for m in range(path.num_operators)
    ]


@pytest.mark.parametrize("task", [TASK_TRANSLATION, TASK_SUPER_RESOLUTION])
def test_stacked_fair_cycle_matches_separate_sub_network_passes(task):
    spec = translation_spec() if task == TASK_TRANSLATION else resampling_spec()
    ds = make_dataset(task, samples=24, val_fraction=0.25, seed=2)
    weights = SupernetWeights.create(spec, seed=5)
    x, y = Tensor(ds.train_x[:4]), Tensor(ds.train_y[:4])
    cfg = quick_cfg()
    p = 0
    gammas = weights.gamma_tensors(p)
    disc = DiscriminatorView(weights, spec.paths[p].matched_discriminator_path)
    views = fair_cycle_views(weights, p)
    generator = weights.named(f"g/p{p}/", include_gamma=False)

    def gradients():
        return {name: t.grad.copy() for name, t in generator if t.grad is not None}

    with weights.train_only(t for _, t in generator):
        out = stacked_forward(views, x)
        stacked = total_loss(out, y, disc(out), gammas, cfg)
        stacked.smooth.backward()
        stacked_grads = gradients()
    outputs, blocks = [], []
    with weights.train_only(t for _, t in generator):
        for view in views:
            outputs.append(view(x))
            bundle = total_loss(outputs[-1], y, disc(outputs[-1]), gammas, cfg)
            bundle.smooth.backward()
            blocks.append(bundle.components)
        separate_grads = gradients()

    assert_relatively_close(out.data, np.concatenate([o.data for o in outputs]))
    assert len(stacked.blocks) == len(views)
    for got, expected in zip(stacked.blocks, blocks):
        assert set(got) == set(expected)
        for key in expected:
            assert_relatively_close(got[key], expected[key])
    for key in stacked.components:
        assert stacked.components[key] == sum(block[key] for block in stacked.blocks)
    # Every generator weight of the path, stem and head included, got a gradient.
    assert set(stacked_grads) == set(separate_grads) == {name for name, _ in generator}
    for name, grad in separate_grads.items():
        assert_relatively_close(stacked_grads[name], grad)


def test_total_loss_refuses_output_that_does_not_stack_target_blocks():
    out, target, scores = loss_inputs(0, batch=5)
    rows = Tensor(np.concatenate([out.data, out.data[:3]]))
    with pytest.raises(ShapeError):
        total_loss(rows, target, Tensor(np.zeros((8, 1))), scale_factors(3, 3), quick_cfg())


def test_stacked_forward_refuses_views_of_different_paths():
    spec = translation_spec()
    weights = SupernetWeights.create(spec, seed=0)
    views = [mixed_view(weights, 0), mixed_view(weights, 1)]
    with pytest.raises(InvariantError):
        stacked_forward(views, Tensor(np.zeros((2, 2, 1))))


def test_stacked_forward_refuses_views_of_different_widths():
    spec = translation_spec()
    weights = SupernetWeights.create(spec, seed=0)
    widest = maximal_genome(spec, 0)
    narrow = replace(widest, channel_assignment=(0,) * len(widest.channel_assignment))
    views = [subnet_view(weights, widest), subnet_view(weights, narrow)]
    with pytest.raises(InvariantError):
        stacked_forward(views, Tensor(np.zeros((2, 2, 1))))
    # Views of one narrow set of widths stack; the head masks through its weight.
    same = [subnet_view(weights, replace(narrow, operator_assignment=(m, m))) for m in (0, 1)]
    x = Tensor(np.random.default_rng(0).normal(size=(3, 2, 1)))
    expected = np.concatenate([view(x).data for view in same])
    assert_relatively_close(stacked_forward(same, x).data, expected)


@pytest.mark.parametrize("task", [TASK_TRANSLATION, TASK_SUPER_RESOLUTION])
def test_discriminator_step_scores_real_and_fake_in_one_pass_like_two(task):
    spec = translation_spec() if task == TASK_TRANSLATION else resampling_spec()
    ds = make_dataset(task, samples=24, val_fraction=0.25, seed=2)
    weights = SupernetWeights.create(spec, seed=5)
    x, y = Tensor(ds.train_x[:4]), Tensor(ds.train_y[:4])
    d = spec.paths[0].matched_discriminator_path
    disc = DiscriminatorView(weights, d)
    discriminator = weights.named(f"d/{d}/")

    def step(loss):
        with weights.train_only(t for _, t in discriminator):
            fake = mixed_view(weights, 0)(x)
            value = loss(fake)
            value.backward()
            return value.item(), {name: t.grad.copy() for name, t in discriminator}

    stacked_value, stacked_grads = step(lambda fake: trainer._discriminator_value(disc, y, fake))
    value, grads = step(lambda fake: discriminator_loss_chain(disc(y), disc(fake)))
    assert_relatively_close(stacked_value, value)
    for name, grad in grads.items():
        assert_relatively_close(stacked_grads[name], grad)


def test_a_default_pretraining_epoch_walks_backward_three_times_per_path(monkeypatch):
    spec, dataset, train_cfg = pipeline.prepare(cli.load_config(None))
    walks = []
    backward = engine.Tensor.backward

    def counted(self):
        walks.append(self)
        backward(self)

    monkeypatch.setattr(engine.Tensor, "backward", counted)
    result = pretrain_supernet(spec, dataset, replace(train_cfg, epochs=1), seed=0)
    # The stacked sub-networks, the mixture and the discriminator.
    assert len(walks) == 3 * spec.num_paths
    assert result.ledger.is_fair()
    assert len(result.metrics) == spec.num_paths
