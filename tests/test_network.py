"""Supernet weight store, checkpoints, and generator/discriminator views."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfsearch.configs import default_toy_spec
from cfsearch.engine import Tensor, finite_difference_gradient, mean_all, square
from cfsearch.errors import CfSearchError, ConfigError, ShapeError
from cfsearch.network import (
    CHECKPOINT_MAGIC,
    DiscriminatorView,
    SupernetWeights,
    mixed_view,
    subnet_view,
)
from cfsearch.space import ArchitectureGenome, maximal_genome, spec_from_dict

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
        # Scale factors are plain weights: a gradient under the prefix moves them too.
        assert changed == name.startswith("g/p0/"), name
        assert (t.grad is None) == name.startswith(("g/p0/", "d/")), name


def test_sgd_step_skips_tensors_without_a_gradient():
    spec, weights = small_weights()
    generator = [t for _, t in weights.named("g/p0/", include_gamma=False)]
    before = {n: t.data.copy() for n, t in weights.tensors.items()}
    x = Tensor(np.random.default_rng(0).normal(size=(3, 1, 4)))
    with weights.train_only(generator):
        mean_all(square(mixed_view(weights, 0)(x))).backward()
        assert all(g.grad is None for g in weights.gamma_tensors(0))
        weights.sgd_step("g/p0/", lr=0.1)
    for name, t in weights.tensors.items():
        changed = not np.array_equal(t.data, before[name])
        assert changed == (name.startswith("g/p0/") and not name.endswith("/gamma")), name


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


def assert_view_grads_match(weights, view, names, seed):
    rng = np.random.default_rng(seed)
    spec = weights.spec
    shape = (3, spec.input_channels, spec.input_sites)
    x = Tensor(rng.normal(size=shape))
    y = Tensor(rng.normal(size=shape))

    def loss():
        return mean_all(square(view(x) - y))

    loss().backward()
    for name in names:
        tensor = weights[name]
        fd = finite_difference_gradient(lambda: loss().item(), tensor)
        scale = np.maximum(np.maximum(np.abs(tensor.grad), np.abs(fd)), 1.0)
        worst = float((np.abs(tensor.grad - fd) / scale).max())
        assert worst < 1e-6, f"{name}: gradient mismatch {worst:.3e}"


def test_mixture_of_two_residual_blocks_has_exact_gradients():
    # Both candidates add their own skip onto the same layer input.
    spec = spec_from_dict(
        {
            "input_channels": 2,
            "input_sites": 1,
            "channel_choices": [2, 4],
            "paths": [
                {
                    "resolution_schedule": [1, 1],
                    "operators": [["shrink_res_block", "context_res_block"]] * 2,
                }
            ],
        }
    )
    weights = SupernetWeights.create(spec, 11)
    names = ["g/p0/stem/w", "g/p0/l0/gamma", "g/p0/l0/op0/u0/w", "g/p0/l1/op1/u1/w"]
    assert_view_grads_match(weights, mixed_view(weights, 0), names, 12)


@pytest.fixture(scope="module")
def real_checkpoint(tmp_path_factory):
    """(spec, checkpoint bytes, header length, a file to write candidates to)."""
    spec = build_spec()
    weights = SupernetWeights.create(spec, seed=0)
    root = tmp_path_factory.mktemp("checkpoint")
    weights.save(str(root / "real.bin"))
    blob = (root / "real.bin").read_bytes()
    header = len(blob) - 8 * sum(t.data.size for t in weights.tensors.values())
    return spec, blob, header, root / "candidate.bin"


def load_or_package_error(spec, path, blob) -> None:
    path.write_bytes(blob)
    try:
        SupernetWeights.load(spec, str(path))
    except CfSearchError:
        pass


@given(st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(CHECKPOINT_MAGIC.__add__)))
def test_checkpoint_load_raises_only_package_errors_for_any_bytes(real_checkpoint, blob):
    spec, _, _, path = real_checkpoint
    load_or_package_error(spec, path, blob)


@given(st.data())
def test_checkpoint_load_raises_only_package_errors_when_cut_or_changed(real_checkpoint, data):
    spec, blob, header, path = real_checkpoint
    if data.draw(st.booleans()):
        candidate = blob[: data.draw(st.integers(0, len(blob) - 1))]
    else:
        # Mostly the header, where a byte decides what the rest of the file means.
        at = data.draw(st.integers(0, header - 1) | st.integers(0, len(blob) - 1))
        candidate = blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1 :]
    load_or_package_error(spec, path, candidate)
