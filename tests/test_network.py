"""Supernet weight store, checkpoints, and generator/discriminator views."""

import numpy as np
import pytest

from cfsearch.configs import default_toy_spec
from cfsearch.engine import Tensor
from cfsearch.errors import ConfigError, ShapeError
from cfsearch.network import (
    DiscriminatorView,
    SupernetWeights,
    _group_mask,
    mixed_view,
    subnet_view,
)
from cfsearch.space import ArchitectureGenome, maximal_genome

from conftest import build_spec


def small_weights(seed=0, **kwargs):
    spec = build_spec(**kwargs)
    return spec, SupernetWeights.create(spec, seed)


def test_creation_is_deterministic():
    _, a = small_weights(3)
    _, b = small_weights(3)
    assert list(a.tensors) == list(b.tensors)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name].data, b.tensors[name].data)
    _, c = small_weights(4)
    assert any(
        not np.array_equal(a.tensors[n].data, c.tensors[n].data) for n in a.tensors
    )


def test_gamma_tensors_start_at_init_value():
    spec, weights = small_weights()
    for p in range(spec.num_paths):
        for l in range(spec.paths[p].num_layers):
            gamma = weights.gamma(p, l)
            assert gamma.data.shape == (spec.max_width,)
            assert np.all(gamma.data == 0.5)


def test_checkpoint_round_trip(tmp_path):
    spec, weights = small_weights(7)
    first = tmp_path / "a.bin"
    weights.save(str(first))
    restored = SupernetWeights.load(spec, str(first))
    for name in weights.tensors:
        assert np.array_equal(weights.tensors[name].data, restored.tensors[name].data)
    second = tmp_path / "b.bin"
    restored.save(str(second))
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_rejects_bad_files(tmp_path):
    spec, weights = small_weights()
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ConfigError):
        SupernetWeights.load(spec, str(bogus))
    # A checkpoint for a different spec fails the shape-table check.
    other_spec = build_spec(n_layers=3)
    saved = tmp_path / "ok.bin"
    weights.save(str(saved))
    with pytest.raises(ConfigError):
        SupernetWeights.load(other_spec, str(saved))


def test_clone_is_independent():
    _, weights = small_weights()
    twin = weights.clone()
    name = next(iter(weights.tensors))
    twin.tensors[name].data += 1.0
    assert not np.array_equal(weights.tensors[name].data, twin.tensors[name].data)


def test_named_prefix_and_gamma_filtering():
    spec, weights = small_weights(n_paths=2)
    path0 = dict(weights.named("g/p0/"))
    assert path0
    assert all(name.startswith("g/p0/") for name in path0)
    no_gamma = dict(weights.named("g/p0/", include_gamma=False))
    assert all("gamma" not in name for name in no_gamma)
    assert any("gamma" in name for name in path0)
    disc = dict(weights.named("d/"))
    assert disc and all(name.startswith("d/") for name in disc)


def test_sgd_step_touches_only_prefix():
    spec, weights = small_weights(n_paths=2)
    before = {n: t.data.copy() for n, t in weights.tensors.items()}
    for _, t in weights.named("g/"):
        t.grad = np.ones_like(t.data)
    weights.sgd_step("g/p0/", lr=0.1)
    for name, t in weights.tensors.items():
        changed = not np.array_equal(t.data, before[name])
        if name.startswith("g/p0/") and "gamma" not in name:
            assert changed, name
        else:
            assert not changed, name


def test_sgd_step_gamma_opt_in():
    spec, weights = small_weights()
    gamma = weights.gamma(0, 0)
    gamma.grad = np.ones_like(gamma.data)
    weights.sgd_step("g/p0/", lr=0.1)
    assert np.all(gamma.data == 0.5)
    weights.sgd_step("g/p0/", lr=0.1, include_gamma=True)
    assert np.allclose(gamma.data, 0.4)


def test_group_mask_is_block_diagonal():
    mask = _group_mask(4, 4, 2)
    assert mask.shape == (4, 4, 1)
    expected = np.zeros((4, 4))
    expected[:2, :2] = 1
    expected[2:, 2:] = 1
    assert np.array_equal(mask[:, :, 0], expected)
    assert np.array_equal(_group_mask(4, 4, 1), np.ones((4, 4, 1)))


def test_subnet_forward_shapes_and_determinism():
    spec, weights = small_weights()
    genome = ArchitectureGenome(0, (0, 1), (0, 1))
    gen = subnet_view(weights, genome)
    x = Tensor(np.random.default_rng(0).normal(size=(5, 1, 4)))
    out1 = gen(x)
    out2 = gen(x)
    assert out1.shape == (5, 1, 4)
    assert np.array_equal(out1.data, out2.data)


def test_generator_rejects_wrong_input_shape():
    spec, weights = small_weights()
    gen = subnet_view(weights, ArchitectureGenome(0, (0, 0), (0, 0)))
    with pytest.raises(ShapeError):
        gen(Tensor(np.zeros((5, 2, 4))))
    with pytest.raises(ShapeError):
        gen(Tensor(np.zeros((5, 4))))


def test_narrow_subnet_differs_from_wide():
    spec, weights = small_weights(channels=(2, 4))
    x = Tensor(np.random.default_rng(1).normal(size=(6, 1, 4)))
    wide = subnet_view(weights, ArchitectureGenome(0, (0, 0), (1, 1)))(x)
    narrow = subnet_view(weights, ArchitectureGenome(0, (0, 0), (0, 0)))(x)
    assert not np.allclose(wide.data, narrow.data)


def test_mixture_averages_single_operator_outputs():
    # With everything linear up to the shared normalization this cannot be
    # checked by output averaging, so compare against an explicit mixture
    # computed from the same weights: a one-operator layer must make the
    # mixed view and the single-operator view agree exactly.
    spec, weights = small_weights(n_operators=1)
    x = Tensor(np.random.default_rng(2).normal(size=(4, 1, 4)))
    mixture = mixed_view(weights, 0)(x)
    single = subnet_view(weights, maximal_genome(spec, 0))(x)
    assert np.array_equal(mixture.data, single.data)


def test_recursion_depth_changes_output():
    spec, weights = small_weights(recursions=(1, 2))
    x = Tensor(np.random.default_rng(3).normal(size=(4, 1, 4)))
    shallow = subnet_view(weights, ArchitectureGenome(0, (0, 0), (1, 1), (0, 0)))(x)
    deep = subnet_view(weights, ArchitectureGenome(0, (0, 0), (1, 1), (1, 1)))(x)
    assert not np.allclose(shallow.data, deep.data)


def test_discriminator_scores_shape():
    spec, weights = small_weights()
    disc = DiscriminatorView(weights, 0)
    y = Tensor(np.random.default_rng(4).normal(size=(7, 1, 4)))
    scores = disc(y)
    assert scores.shape == (7, 1)


def test_default_spec_views_run():
    spec = default_toy_spec()
    weights = SupernetWeights.create(spec, 9)
    x = Tensor(np.random.default_rng(5).normal(size=(3, 2, 1)))
    for p in range(spec.num_paths):
        out = mixed_view(weights, p)(x)
        assert out.shape == (3, 2, 1)
        assert np.all(np.isfinite(out.data))
        top = maximal_genome(spec, p)
        assert subnet_view(weights, top)(x).shape == (3, 2, 1)
