"""Adversarial training loop: losses, fair pretraining, fine-tuning."""

from dataclasses import replace

import numpy as np
import pytest

from cfsearch import cli, engine, pipeline, reporting, trainer
from cfsearch.engine import Tensor
from cfsearch.errors import ConfigError, InvariantError, NonFiniteLossError, ShapeError
from cfsearch.metrics import gaussian_moments, moment_distance
from cfsearch.network import DiscriminatorView, SupernetWeights, mixed_view
from cfsearch.network import stacked_forward, subnet_view
from cfsearch.space import ArchitectureGenome, maximal_genome, spec_from_dict
from cfsearch.sparsity import prox_step
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
    pretrain_supernet,
    score_outputs,
    total_loss,
)
from cfsearch.util import child_seed

from conftest import build_spec, max_imbalance
from reference_ops import (
    absolute,
    add,
    finite_difference_gradient,
    mean_all,
    neg,
    softplus,
    square,
    sub,
)


def quick_cfg(**kwargs):
    merged = dict(epochs=3, batch_size=4)
    merged.update(kwargs)
    return TrainConfig(**merged)


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
        TrainConfig(epochs=1, lambda_recon=-1.0)


def test_total_loss_components_add_up():
    rng = np.random.default_rng(0)
    out = Tensor(rng.normal(size=(6, 2, 1)), requires_grad=True)
    target = Tensor(rng.normal(size=(6, 2, 1)))
    scores = Tensor(rng.normal(size=(6, 1)))
    cfg = quick_cfg()
    bundle = total_loss(out, target, scores, cfg)
    c = bundle.components
    assert set(c) == {"gan", "recon", "mse", "total"}
    # Components are stored unweighted; the total applies the lambdas.
    assert c["total"] == pytest.approx(
        c["gan"] + cfg.lambda_recon * c["recon"] + cfg.lambda_mse * c["mse"]
    )
    # The total is the loss node's value.
    assert bundle.loss.item() == c["total"]


def test_each_blocks_mse_component_is_its_mean_squared_error():
    rng = np.random.default_rng(2)
    target = Tensor(rng.normal(size=(4, 2, 3)))
    out = Tensor(rng.normal(size=(8, 2, 3)), requires_grad=True)
    scores = Tensor(rng.normal(size=(8, 1)))
    bundle = total_loss(out, target, scores, quick_cfg())
    errors = out.data.reshape(2, 4, 2, 3) - target.data
    for block, error in zip(bundle.blocks, errors, strict=True):
        assert block["mse"] == pytest.approx(np.mean(error**2), rel=1e-12)
        assert block["recon"] == pytest.approx(np.mean(np.abs(error)), rel=1e-12)
    assert bundle.components["mse"] == pytest.approx(np.sum(np.mean(errors**2, axis=(1, 2, 3))))


def total_loss_chain(output, target, d_scores, cfg):
    """The loss as the chain of reference ops that ``total_loss`` fuses."""
    adversarial = mean_all(softplus(neg(d_scores)))
    reconstruction = mean_all(absolute(sub(output, target)))
    squared_error = mean_all(square(sub(output, target)))
    return add(
        add(adversarial, cfg.lambda_recon * reconstruction),
        cfg.lambda_mse * squared_error,
    )


def discriminator_loss_chain(real_scores, fake_scores):
    return add(mean_all(softplus(neg(real_scores))), mean_all(softplus(fake_scores)))


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
    cfg = quick_cfg()
    assert_matches_finite_differences(
        lambda: total_loss(out, target, scores, cfg).loss, [out, scores]
    )


@BIT_CASES
def test_total_loss_is_one_node_bit_identical_to_its_chain(seed, batch):
    out, target, scores = loss_inputs(seed, batch)
    cfg = quick_cfg()
    bundle = total_loss(out, target, scores, cfg)
    assert bundle.loss._parents == (out, scores)
    chain = total_loss_chain(out, target, scores, cfg)
    assert np.array_equal(bundle.loss.data, chain.data)
    assert bundle.components["total"] == chain.item()
    for fused, expected in zip(
        grads_of(bundle.loss, [out, scores]), grads_of(chain, [out, scores])
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
    expected = -moment_distance(
        gaussian_moments(out.reshape(n, -1)), gaussian_moments(ds.val_y.reshape(n, -1))
    )
    assert score_outputs(out, ds) == expected
    assert ds.val_moments is ds.val_moments
    assert score_outputs(out, ds) == expected


def test_pretrain_is_fair_and_finite():
    spec = translation_spec()
    ds = quick_dataset()
    result = pretrain_supernet(spec, ds, quick_cfg(), seed=3)
    assert result.ledger.is_fair()
    assert max_imbalance(result.ledger) == 0
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
            "loss_mse",
            "d_loss",
        ):
            assert np.isfinite(row[key])


def test_training_rows_carry_exactly_the_columns_the_report_writes():
    # The report writes only its listed columns, so a key computed for a
    # row but not listed would be dropped without a word.
    spec = translation_spec()
    ds = quick_dataset()
    pre = pretrain_supernet(spec, ds, quick_cfg(epochs=2), seed=3)
    rows = finetune_genome(
        pre.weights, ArchitectureGenome(0, (0, 0), (1, 1)), ds, quick_cfg(), epochs=2, seed=3
    )
    assert pre.metrics and rows
    assert all(tuple(row) == reporting.PRETRAIN_COLUMNS for row in pre.metrics)
    assert all(tuple(row) == reporting.FINETUNE_COLUMNS for row in rows)


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


def test_pretraining_steps_the_scale_factors_by_the_decayed_rate(monkeypatch):
    spec = translation_spec()
    steps = []

    def recorded(gammas, stepsize):
        steps.append((gammas, stepsize))
        prox_step(gammas, stepsize)

    monkeypatch.setattr(trainer, "prox_step", recorded)
    cfg = quick_cfg(epochs=3, lr_gamma=0.1, lr_decay=0.5)
    result = pretrain_supernet(spec, quick_dataset(), cfg, seed=3)
    assert [eta for _, eta in steps] == [
        eta for eta in (0.1, 0.05, 0.025) for _ in range(spec.num_paths)
    ]
    # Each step moves one path's own factor tensors, every path once an epoch.
    owners = {id(g): p for p in range(spec.num_paths) for g in result.weights.gamma_tensors(p)}
    paths = [[owners.get(id(g)) for g in gammas] for gammas, _ in steps]
    expected = [[p] * path.num_layers for p, path in enumerate(spec.paths) for _ in range(3)]
    assert sorted(paths) == expected


def test_gamma_zero_stats_counts_the_exact_zeros_of_every_path():
    spec = translation_spec()
    weights = SupernetWeights.create(spec, seed=0)
    gammas = [g for p in range(spec.num_paths) for g in weights.gamma_tensors(p)]
    assert trainer.gamma_zero_stats(weights) == (0, 0.0)
    gammas[0].data[:2] = 0.0
    gammas[-1].data[:1] = 0.0
    gammas[-1].data[1] = 1e-300  # tiny is not zero
    assert trainer.gamma_zero_stats(weights) == (3, 3 / sum(g.data.size for g in gammas))


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
    weights["d/0/out/b"].data[:] = np.nan
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
    disc = DiscriminatorView(weights, p)
    views = fair_cycle_views(weights, p)
    generator = weights.named(f"g/p{p}/", include_gamma=False)

    def gradients():
        return {name: t.grad.copy() for name, t in generator if t.grad is not None}

    with weights.train_only(t for _, t in generator):
        out = stacked_forward(views, x)
        stacked = total_loss(out, y, disc(out), cfg)
        stacked.loss.backward()
        stacked_grads = gradients()
    outputs, blocks = [], []
    with weights.train_only(t for _, t in generator):
        for view in views:
            outputs.append(view(x))
            bundle = total_loss(outputs[-1], y, disc(outputs[-1]), cfg)
            bundle.loss.backward()
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
        total_loss(rows, target, Tensor(np.zeros((8, 1))), quick_cfg())


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
    disc = DiscriminatorView(weights, 0)
    discriminator = weights.named("d/0/")

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


def test_a_default_pretraining_epoch_walks_backward_twice_per_path(monkeypatch):
    spec, dataset, train_cfg = pipeline.prepare(cli.load_config(None))
    walks = []
    backward = engine.Tensor.backward

    def counted(self):
        walks.append(self)
        backward(self)

    monkeypatch.setattr(engine.Tensor, "backward", counted)
    result = pretrain_supernet(spec, dataset, replace(train_cfg, epochs=1), seed=0)
    # The stacked sub-networks, then the discriminator.
    assert len(walks) == 2 * spec.num_paths
    assert result.ledger.is_fair()
    assert len(result.metrics) == spec.num_paths


def test_a_cycle_takes_one_proximal_step_on_the_scale_factors_gradient_of_its_stacked_loss(
    monkeypatch,
):
    spec = translation_spec()
    ds = quick_dataset()
    cfg = quick_cfg(epochs=1, lr_weights=0.05, lr_gamma=0.3)
    passes, targets, steps = [], [], []
    forward, loss, step = trainer.stacked_forward, trainer.total_loss, trainer.prox_step

    def recorded_forward(views, x):
        assignments = [view.operator_assignment for view in views]
        passes.append((views[0].weights.clone(), views[0].path_index, assignments, x))
        return forward(views, x)

    def recorded_loss(output, target, d_scores, cfg):
        targets.append(target)
        return loss(output, target, d_scores, cfg)

    def recorded_step(gammas, stepsize):
        steps.append([(g.data.copy(), g.grad.copy()) for g in gammas])
        step(gammas, stepsize)

    monkeypatch.setattr(trainer, "stacked_forward", recorded_forward)
    monkeypatch.setattr(trainer, "total_loss", recorded_loss)
    monkeypatch.setattr(trainer, "prox_step", recorded_step)
    result = pretrain_supernet(spec, ds, cfg, seed=3)

    assert len(passes) == len(targets) == len(steps) == spec.num_paths
    for (before, p, assignments, x), y, recorded in zip(passes, targets, steps):
        # The gradient of the stacked loss, at the weights the cycle began with.
        views = [
            subnet_view(before, replace(maximal_genome(spec, p), operator_assignment=a))
            for a in assignments
        ]
        gammas = before.gamma_tensors(p)
        with before.train_only(gammas):
            out = forward(views, x)
            loss(out, y, DiscriminatorView(before, p)(out), cfg).loss.backward()
            expected_grads = [g.grad.copy() for g in gammas]
        for (data, grad), start, expected, after in zip(
            recorded, gammas, expected_grads, result.weights.gamma_tensors(p)
        ):
            assert np.array_equal(data, start.data)
            assert np.array_equal(grad, expected) and np.any(grad != 0.0)
            # One descent step and no SGD step: each path's factors move
            # only in the path's own cycle of the one epoch.
            assert np.array_equal(after.data, start.data - 0.3 * grad)
            assert not np.array_equal(after.data, start.data)


def test_the_discriminator_steps_on_the_fakes_of_the_generator_pass_before_its_step(monkeypatch):
    spec = translation_spec()
    ds = quick_dataset()
    cfg = quick_cfg(epochs=2)
    outputs, fakes = [], []
    loss, step = trainer.total_loss, trainer._discriminator_step

    def recorded_loss(output, target, d_scores, cfg):
        outputs.append((output.data.copy(), target))
        return loss(output, target, d_scores, cfg)

    def recorded_step(disc, real, fake, lr, context):
        fakes.append((fake.data.copy(), real))
        return step(disc, real, fake, lr, context)

    monkeypatch.setattr(trainer, "total_loss", recorded_loss)
    monkeypatch.setattr(trainer, "_discriminator_step", recorded_step)
    pre = pretrain_supernet(spec, ds, cfg, seed=3)
    # Pretraining: the M * B rows of the cycle's stacked pass.
    assert len(fakes) == len(outputs) == cfg.epochs * spec.num_paths
    for (fake, real), (out, target) in zip(fakes, outputs):
        assert fake.shape[0] == spec.paths[0].num_operators * cfg.batch_size
        assert np.array_equal(fake, out) and real is target

    # Fine-tuning: the output the generator's loss scored, before its step.
    outputs.clear()
    fakes.clear()
    genome = ArchitectureGenome(1, (0, 1), (1, 0))
    weights = pre.weights.clone()
    finetune_genome(weights, genome, ds, cfg, epochs=3, seed=5)
    assert len(fakes) == len(outputs) == 3
    for (fake, real), (out, target) in zip(fakes, outputs):
        assert np.array_equal(fake, out) and real is target
    rng = np.random.default_rng(child_seed(5, "finetune"))
    x = Tensor(ds.train_x[rng.choice(ds.n_train, size=cfg.batch_size, replace=False)])
    assert np.array_equal(fakes[0][0], subnet_view(pre.weights, genome)(x).data)
