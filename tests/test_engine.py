"""Reverse-mode gradients checked against central finite differences."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from cfsearch.engine import (
    Tensor,
    _columns,
    channel_rms_norm,
    concat_rows,
    conv1d,
    downsample_mean,
    dwconv1d,
    mixture_mean,
    pooled_linear,
    upsample_repeat,
)
from cfsearch.errors import InvariantError, ShapeError

from reference_ops import (
    absolute,
    add,
    finite_difference_gradient,
    matmul,
    mean_all,
    mean_axis,
    reshape,
    softplus,
    square,
    sub,
    sum_all,
    tanh,
)


def assert_grads_match(build, tensors, tol=1e-6):
    """Backprop ``build()`` once and compare grads to finite differences."""
    for t in tensors:
        t.grad = None
    build().backward()
    for t in tensors:
        ad = t.grad.copy()
        fd = finite_difference_gradient(lambda: build().item(), t)
        scale = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1.0)
        worst = np.max(np.abs(ad - fd) / scale)
        assert worst < tol, f"gradient mismatch {worst:.3e}"


def leaf(shape, seed, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return Tensor(offset + scale * rng.normal(size=shape), requires_grad=True)


def test_arithmetic_gradients():
    x = leaf((3, 4), 0)
    y = leaf((3, 4), 1)
    assert_grads_match(lambda: mean_all(sub(add(x * y, x), y)), [x, y])


def test_broadcast_add_gradients():
    x = leaf((3, 1), 2)
    y = leaf((3, 4), 3)
    assert_grads_match(lambda: sum_all(add(x, y)), [x, y])
    assert x.grad.shape == (3, 1)


def test_matmul_gradients():
    a = leaf((4, 3), 4)
    b = leaf((3, 5), 5)
    assert_grads_match(lambda: mean_all(matmul(a, b)), [a, b])


@pytest.mark.parametrize("op", [tanh, softplus, square])
def test_elementwise_gradients(op):
    x = leaf((2, 7), 6)
    assert_grads_match(lambda: mean_all(op(x)), [x])


def test_absolute_gradient_away_from_kink():
    x = Tensor(np.array([[1.5, -2.0, 0.25, -0.75]]), requires_grad=True)
    assert_grads_match(lambda: sum_all(absolute(x)), [x])


def test_mean_axis_gradients():
    x = leaf((2, 5, 3), 7)
    assert_grads_match(lambda: sum_all(square(mean_axis(x, axis=1))), [x])


# (sites, kernel): one site, taps that reach no site, several live taps, k = 1.
CONV_SHAPES = [(1, 3), (2, 5), (4, 3), (6, 1)]
# Each shape with a frozen and with a trainable ("-bias") bias.
CONV_CASES = [
    pytest.param(sites, kernel, with_bias, id=f"{sites}-{kernel}" + ("-bias" if with_bias else ""))
    for sites, kernel in CONV_SHAPES
    for with_bias in (False, True)
]


def padded(x, pad):
    out = np.zeros(x.shape[:2] + (x.shape[2] + 2 * pad,))
    out[:, :, pad : pad + x.shape[2]] = x
    return out


def conv1d_reference(x, w):
    """Zero-pad, then sum every tap at every output site."""
    kernel = w.shape[2]
    xp = padded(x, kernel // 2)
    y = np.zeros((x.shape[0], w.shape[0], x.shape[2]))
    for s in range(x.shape[2]):
        for k in range(kernel):
            y[:, :, s] += xp[:, :, s + k] @ w[:, :, k].T
    return y


def dwconv1d_reference(x, w):
    kernel = w.shape[1]
    xp = padded(x, kernel // 2)
    y = np.zeros(x.shape)
    for s in range(x.shape[2]):
        for k in range(kernel):
            y[:, :, s] += xp[:, :, s + k] * w[:, k]
    return y


def bias_leaf(with_bias, channels, seed):
    """A bias that takes part in the gradient check only ``with_bias``."""
    b = leaf((channels,), seed, scale=0.5)
    b.requires_grad = with_bias
    return b


def plus_bias(y, bias):
    return y + bias.data[:, None]


@pytest.mark.parametrize("sites, kernel, with_bias", CONV_CASES)
def test_conv1d_gradients(sites, kernel, with_bias):
    x = leaf((2, 3, sites), 8)
    w = leaf((4, 3, kernel), 9, scale=0.5)
    b = bias_leaf(with_bias, 4, 27)
    expected = plus_bias(conv1d_reference(x.data, w.data), b)
    assert np.allclose(conv1d(x, w, bias=b).data, expected, rtol=1e-12, atol=1e-12)
    leaves = [x, w, b] if with_bias else [x, w]
    assert_grads_match(lambda: mean_all(square(conv1d(x, w, bias=b))), leaves)


def test_conv1d_single_site():
    x = leaf((2, 3, 1), 10)
    w = leaf((2, 3, 3), 11)
    b = leaf((2,), 105)
    y = conv1d(x, w, bias=b)
    assert y.shape == (2, 2, 1)
    assert_grads_match(lambda: sum_all(square(conv1d(x, w, bias=b))), [x, w, b])


def conv1d_reference_grads(x, w, g):
    """Gradients of ``sum(conv1d_reference(x, w) * g)``, tap by tap and site by site."""
    kernel, sites = w.shape[2], x.shape[2]
    xp = padded(x, kernel // 2)
    gxp = np.zeros(xp.shape)
    gw = np.zeros(w.shape)
    for s in range(sites):
        for k in range(kernel):
            gw[:, :, k] += g[:, :, s].T @ xp[:, :, s + k]
            gxp[:, :, s + k] += g[:, :, s] @ w[:, :, k]
    return gxp[:, :, kernel // 2 : kernel // 2 + sites], gw


def assert_close(actual, expected, tol=1e-12):
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(actual - expected)) <= tol * scale


# The workloads' conv shapes: (batch, sites, kernel), 12 channels in and out,
# plus a 5-tap kernel on 2 sites, whose outer taps read only padding.
REAL_CONV_SHAPES = [
    (batch, sites, kernel)
    for batch in (16, 64)
    for sites in (1, 4, 8, 16)
    for kernel in (1, 3)
] + [(16, 2, 5)]


@pytest.mark.parametrize(
    "batch, sites, kernel", REAL_CONV_SHAPES, ids=[f"{b}-{s}-{k}" for b, s, k in REAL_CONV_SHAPES]
)
def test_conv1d_matches_its_reference_at_real_shapes_with_any_parents_frozen(batch, sites, kernel):
    x = leaf((batch, 12, sites), 90)
    w = leaf((12, 12, kernel), 91, scale=0.3)
    b = leaf((12,), 92)
    skip = leaf((batch, 12, sites), 93)
    probe = np.random.default_rng(94).normal(size=(batch, 12, sites))
    act = np.tanh(conv1d_reference(x.data, w.data) + b.data[:, None])
    g = probe * (1.0 - act * act)
    gx, gw = conv1d_reference_grads(x.data, w.data, g)
    expected = [gx, gw, g.sum(axis=(0, 2)), probe]
    leaves = [x, w, b, skip]
    for n in range(len(leaves)):
        for frozen in combinations(range(len(leaves)), n):
            for i, t in enumerate(leaves):
                t.requires_grad = i not in frozen
                t.grad = None
            y = conv1d(x, w, bias=b, tanh=True, skip=skip)
            assert_close(y.data, act + skip.data)
            sum_all(y * Tensor(probe)).backward()
            for i, t in enumerate(leaves):
                if i in frozen:
                    assert t.grad is None
                else:
                    assert_close(t.grad, expected[i])


@pytest.mark.parametrize("sites, kernel", [(1, 3), (2, 5), (1, 5)])
def test_conv1d_taps_that_read_only_padding_get_a_zero_weight_gradient(sites, kernel):
    x = leaf((16, 12, sites), 95)
    w = leaf((12, 12, kernel), 96)
    mean_all(square(conv1d(x, w, bias=Tensor(np.zeros(12))))).backward()
    live = {kernel // 2 + shift for shift in range(1 - sites, sites)}
    for k in range(kernel):
        if k not in live:
            assert np.all(w.grad[:, :, k] == 0.0)
        else:
            assert np.any(w.grad[:, :, k] != 0.0)


def strided_views(batch, channels, sites, seed):
    """The same values as a channel-major view, a site-major view and a batch slice."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(batch, channels, sites))
    return [
        np.ascontiguousarray(base.transpose(1, 0, 2)).transpose(1, 0, 2),
        np.ascontiguousarray(base.transpose(1, 2, 0)).transpose(2, 0, 1),
        np.repeat(base, 2, axis=0)[::2],
    ]


@pytest.mark.parametrize("sites, kernel", [(1, 3), (4, 3), (16, 3), (8, 1)])
def test_conv1d_of_a_view_is_bit_identical_to_the_conv_of_its_copy(sites, kernel):
    w = leaf((12, 12, kernel), 97, scale=0.3)
    b = leaf((12,), 98)
    probe = Tensor(np.random.default_rng(99).normal(size=(16, 12, sites)))

    def run(data):
        x = Tensor(data, requires_grad=True)
        w.grad = b.grad = None
        y = conv1d(x, w, bias=b, tanh=True)
        sum_all(y * probe).backward()
        return [y.data, x.grad, w.grad, b.grad]

    for view in strided_views(16, 12, sites, 100):
        assert not view.flags.c_contiguous
        for got, expected in zip(run(view), run(view.copy())):
            assert np.array_equal(got, expected)


def test_conv1d_forward_keeps_its_output_not_its_columns():
    # Sweeps evaluate with trainable weights, so whatever a forward keeps for
    # its backward is held by every graph; the columns are rebuilt instead.
    x = leaf((64, 12, 16), 101)
    w = leaf((12, 12, 3), 102)
    b = leaf((12,), 103)
    conv1d(x, w, bias=b)  # fill any per-shape caches first
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = conv1d(x, w, bias=b)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    columns_bytes = 12 * 3 * 64 * 16 * 8
    assert y.data.nbytes <= held < 1.25 * y.data.nbytes < columns_bytes


@pytest.mark.parametrize("sites, kernel, with_bias", CONV_CASES)
def test_dwconv1d_gradients(sites, kernel, with_bias):
    x = leaf((2, 4, sites), 12)
    w = leaf((4, kernel), 13, scale=0.5)
    b = bias_leaf(with_bias, 4, 28)
    expected = plus_bias(dwconv1d_reference(x.data, w.data), b)
    assert np.allclose(dwconv1d(x, w, bias=b).data, expected, rtol=1e-12, atol=1e-12)
    leaves = [x, w, b] if with_bias else [x, w]
    assert_grads_match(lambda: mean_all(square(dwconv1d(x, w, bias=b))), leaves)


def test_biased_conv_is_one_graph_node():
    x = leaf((2, 3, 4), 29)
    w = leaf((4, 3, 3), 30)
    b = leaf((4,), 31)
    assert conv1d(x, w, bias=b)._parents == (x, w, b)
    dw = leaf((3, 3), 32)
    c = leaf((3,), 33)
    assert dwconv1d(x, dw, bias=c)._parents == (x, dw, c)


def test_conv_shape_errors():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        conv1d(x, Tensor(np.zeros((4, 3, 2))), bias=Tensor(np.zeros(4)))  # even kernel
    with pytest.raises(ShapeError):
        conv1d(x, Tensor(np.zeros((4, 5, 3))), bias=Tensor(np.zeros(4)))  # channel mismatch
    with pytest.raises(ShapeError):
        dwconv1d(x, Tensor(np.zeros((5, 3))), bias=Tensor(np.zeros(5)))


def test_resampling_gradients_and_shapes():
    x = leaf((2, 3, 4), 15)
    up = upsample_repeat(x, 2)
    assert up.shape == (2, 3, 8)
    down = downsample_mean(x, 2)
    assert down.shape == (2, 3, 2)
    assert_grads_match(lambda: sum_all(square(upsample_repeat(x, 2))), [x])
    assert_grads_match(lambda: sum_all(square(downsample_mean(x, 2))), [x])


def test_rms_norm_gradients():
    x = leaf((2, 4, 3), 16, offset=0.5)
    gamma = Tensor(np.linspace(0.5, 1.5, 4))
    assert_grads_match(lambda: mean_all(square(channel_rms_norm(x, gamma))), [x], tol=1e-5)


def test_rms_norm_normalizes_power():
    x = Tensor(np.random.default_rng(17).normal(size=(2, 8, 5)) * 3.0)
    y = channel_rms_norm(x, Tensor(np.ones(8)))
    power = (y.data**2).mean(axis=1)
    assert np.allclose(power, 1.0, atol=1e-4)


def rms_norm_reference(x, gamma, keep):
    """The elementwise chain the fused op replaces, one float op at a time."""
    power = (x * x).mean(axis=1, keepdims=True)
    y = x * (1.0 / np.sqrt(power + 1e-6)) * gamma.reshape(1, -1, 1)
    return y if keep is None else y * keep.reshape(1, -1, 1)


KEEP = np.array([1.0, 0.0, 1.0, 1.0, 0.0])


def masked_rms_norm(x, gamma, keep):
    """The norm, then the mask as a layer's mask stage applies it."""
    y = channel_rms_norm(x, gamma)
    return y if keep is None else y * keep.reshape(1, -1, 1)


@pytest.mark.parametrize("keep", [None, KEEP], ids=["all", "keep"])
def test_fused_rms_norm_gradients(keep):
    x = leaf((3, 5, 2), 35, offset=0.5)
    gamma = leaf((5,), 36, offset=1.0, scale=0.3)
    assert_grads_match(
        lambda: mean_all(square(masked_rms_norm(x, gamma, keep))), [x, gamma], tol=1e-5
    )
    if keep is not None:
        assert np.all(gamma.grad[keep == 0.0] == 0.0)


@pytest.mark.parametrize("keep", [None, KEEP], ids=["all", "keep"])
@pytest.mark.parametrize("shape", [(2, 5, 1), (4, 5, 6)])
def test_fused_rms_norm_forward_is_bit_identical_to_its_chain(shape, keep):
    x = leaf(shape, 37, scale=2.0)
    gamma = leaf((5,), 38)
    expected = rms_norm_reference(x.data, gamma.data, keep)
    assert np.array_equal(masked_rms_norm(x, gamma, keep).data, expected)


def test_rms_norm_is_one_graph_node():
    x = leaf((2, 5, 3), 39)
    gamma = leaf((5,), 40)
    assert channel_rms_norm(x, gamma)._parents == (x, gamma)
    assert masked_rms_norm(x, gamma, KEEP)._parents[0]._parents == (x, gamma)


def conv1d_case(sites, kernel, with_bias):
    x = leaf((2, 3, sites), 41)
    w = leaf((4, 3, kernel), 42, scale=0.5)
    b = bias_leaf(with_bias, 4, 43)
    return lambda: conv1d(x, w, bias=b), [x, w, b] if with_bias else [x, w]


def dwconv1d_case(sites, kernel, with_bias):
    x = leaf((2, 4, sites), 44)
    w = leaf((4, kernel), 45, scale=0.5)
    b = bias_leaf(with_bias, 4, 46)
    return lambda: dwconv1d(x, w, bias=b), [x, w, b] if with_bias else [x, w]


def rms_norm_case(keep):
    x = leaf((3, 5, 2), 47, offset=0.5)
    gamma = leaf((5,), 48, offset=1.0, scale=0.3)
    return lambda: masked_rms_norm(x, gamma, keep), [x, gamma]


def matmul_case():
    a = leaf((4, 3), 49)
    b = leaf((3, 5), 50)
    return lambda: matmul(a, b), [a, b]


def mul_case():
    a = leaf((3, 4), 51)
    b = leaf((3, 1), 52)  # broadcast, so b's gradient is summed down
    return lambda: a * b, [a, b]


FREEZE_CASES = [
    *(
        pytest.param(op, case.values, id=f"{op.__name__}-{case.id}")
        for op in (conv1d_case, dwconv1d_case)
        for case in CONV_CASES
    ),
    pytest.param(rms_norm_case, (None,), id="rms_norm-all"),
    pytest.param(rms_norm_case, (KEEP,), id="rms_norm-keep"),
    pytest.param(matmul_case, (), id="matmul"),
    pytest.param(mul_case, (), id="mul"),
]


@pytest.mark.parametrize("make, args", FREEZE_CASES)
def test_frozen_parents_get_no_gradient_and_the_rest_are_unchanged(make, args):
    build, parents = make(*args)
    mean_all(square(build())).backward()
    expected = [p.grad for p in parents]
    for n in range(1, len(parents)):
        for frozen in combinations(range(len(parents)), n):
            for i, p in enumerate(parents):
                p.grad = None
                p.requires_grad = i not in frozen
            mean_all(square(build())).backward()
            for i, p in enumerate(parents):
                if i in frozen:
                    assert p.grad is None
                else:
                    assert np.array_equal(p.grad, expected[i])


def test_backward_without_a_trainable_ancestor_raises():
    with pytest.raises(InvariantError):
        sum_all(Tensor(np.ones(3)) * 2.0).backward()
    x = leaf((3,), 53)
    x.requires_grad = False
    with pytest.raises(InvariantError):
        mean_all(square(x)).backward()
    assert x.grad is None


def test_backward_requires_scalar():
    x = leaf((2, 3), 18)
    with pytest.raises(ShapeError):
        (x * x).backward()


def test_gradients_accumulate_until_cleared():
    x = leaf((3,), 19)
    loss = sum_all(square(x))
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.allclose(x.grad, 2 * first)
    x.grad = None
    loss.backward()
    assert np.array_equal(x.grad, first)


def test_shared_inputs_get_independent_gradients():
    # ``add`` hands one gradient array to both parents; accumulating into it
    # in place once changed the gradient the other parent still had to read.
    x = leaf((3,), 25)
    y = leaf((3,), 26)
    sum_all(add(add(add(x, y), x), y)).backward()
    assert np.array_equal(x.grad, np.full(3, 2.0))
    assert np.array_equal(y.grad, np.full(3, 2.0))
    assert_grads_match(lambda: sum_all(square(add(add(add(x, y), x), y))), [x, y])


def test_whole_network_gradient_against_finite_differences():
    # A composite touching most primitives at once.
    x = leaf((2, 3, 4), 21)
    w1 = leaf((5, 3, 3), 22, scale=0.4)
    w2 = leaf((5, 3), 23, scale=0.4)
    b1 = leaf((5,), 106, scale=0.1)
    b2 = leaf((5,), 107, scale=0.1)
    gamma = leaf((5, 1), 24, offset=1.0, scale=0.1)
    norm_gamma = leaf((5,), 34, offset=1.0, scale=0.1)

    def build():
        h = channel_rms_norm(conv1d(x, w1, bias=b1), norm_gamma)
        h = tanh(dwconv1d(h, w2, bias=b2) * gamma)
        h = downsample_mean(upsample_repeat(h, 2), 2)
        return mean_all(square(h))

    assert_grads_match(build, [x, w1, b1, w2, b2, gamma, norm_gamma], tol=1e-5)


# Fused ops against the chains of reference ops they replace, at 1 site and at 5.
FUSED_SITES = [1, 5]


def conv_chain_case(sites, act, with_skip, depthwise=False):
    x = leaf((2, 4, sites), 60)
    w = leaf((4, 3), 61, scale=0.5) if depthwise else leaf((5, 4, 3), 61, scale=0.5)
    out_channels = w.data.shape[0]
    b = leaf((out_channels,), 62)
    s = leaf((2, out_channels, sites), 63) if with_skip else None
    op = dwconv1d if depthwise else conv1d

    def chain():
        h = op(x, w, bias=b)
        if act:
            h = tanh(h)
        return h if s is None else add(h, s)

    leaves = [x, w, b] if s is None else [x, w, b, s]
    return (lambda: op(x, w, bias=b, tanh=act, skip=s)), chain, leaves


def mixture_chain_case(sites, n):
    parts = [leaf((2, 4, sites), 64 + i) for i in range(n)]

    def chain():
        out = parts[0]
        for part in parts[1:]:
            out = add(out, part)
        return out * (1.0 / n)

    return (lambda: mixture_mean(parts)), chain, parts


def pooled_chain_case(sites):
    h = leaf((3, 4, sites), 70)
    w = leaf((4, 1), 71)
    b = leaf((1,), 72)

    def chain():
        return add(matmul(reshape(mean_axis(h, axis=2), 3, 4), w), b)

    return (lambda: pooled_linear(h, w, b)), chain, [h, w, b]


FUSED_CASES = [
    *(
        pytest.param(
            conv_chain_case, (sites, act, with_skip, depthwise),
            id=f"{'dw' if depthwise else ''}conv-{sites}"
            + ("-tanh" if act else "") + ("-skip" if with_skip else ""),
        )
        for depthwise in (False, True)
        for sites in FUSED_SITES
        for act, with_skip in ((True, False), (False, True), (True, True))
    ),
    *(
        pytest.param(mixture_chain_case, (sites, n), id=f"mixture-{sites}-{n}")
        for sites in FUSED_SITES
        for n in (2, 3)
    ),
    *(pytest.param(pooled_chain_case, (sites,), id=f"pooled-{sites}") for sites in FUSED_SITES),
]


def outputs_and_grads(build, leaves, probe):
    for t in leaves:
        t.grad = None
    out = build()
    sum_all(out * probe).backward()
    return out.data, [t.grad for t in leaves]


@pytest.mark.parametrize("make, args", FUSED_CASES)
def test_fused_op_is_bit_identical_to_its_chain_with_any_parents_frozen(make, args):
    fused, chain, leaves = make(*args)
    probe = Tensor(np.random.default_rng(73).normal(size=chain().shape))
    for n in range(len(leaves)):
        for frozen in combinations(range(len(leaves)), n):
            for i, t in enumerate(leaves):
                t.requires_grad = i not in frozen
            out, grads = outputs_and_grads(fused, leaves, probe)
            expected_out, expected_grads = outputs_and_grads(chain, leaves, probe)
            assert np.array_equal(out, expected_out)
            for i, (g, expected) in enumerate(zip(grads, expected_grads)):
                if i in frozen:
                    assert g is None
                else:
                    assert np.array_equal(g, expected)


def test_fused_ops_are_one_graph_node():
    x = leaf((2, 3, 4), 74)
    w = leaf((4, 3, 3), 75)
    b = leaf((4,), 76)
    s = leaf((2, 4, 4), 77)
    assert conv1d(x, w, bias=b, tanh=True, skip=s)._parents == (x, w, b, s)
    assert conv1d(x, w, bias=b, tanh=True)._parents == (x, w, b)
    dw = leaf((3, 3), 78)
    c = leaf((3,), 79)
    t = leaf((2, 3, 4), 80)
    assert dwconv1d(x, dw, bias=c, tanh=True, skip=t)._parents == (x, dw, c, t)
    parts = [leaf((2, 3, 4), 81 + i) for i in range(3)]
    assert mixture_mean(parts)._parents == tuple(parts)
    assert mixture_mean(parts[:1]) is parts[0]
    head_w = leaf((3, 1), 84)
    head_b = leaf((1,), 85)
    assert pooled_linear(x, head_w, head_b)._parents == (x, head_w, head_b)


# Ops with every input frozen, as in every scoring forward, against the same
# op with one input trainable.  ``conv1d`` returns early on frozen inputs; the
# others build their node through ``Tensor._make``, which drops the parents.
def frozen_conv_case(sites, with_bias, act, with_skip, depthwise=False):
    x = leaf((3, 4, sites), 86)
    w = leaf((4, 3), 87, scale=0.5) if depthwise else leaf((5, 4, 3), 87, scale=0.5)
    out_channels = w.data.shape[0]
    b = bias_leaf(with_bias, out_channels, 88)
    s = leaf((3, out_channels, sites), 89) if with_skip else None
    op = dwconv1d if depthwise else conv1d
    leaves = [t for t in (x, w, b, s) if t is not None and t.requires_grad]
    return (lambda: op(x, w, bias=b, tanh=act, skip=s)), leaves


def frozen_norm_case(sites):
    x, gamma = leaf((3, 5, sites), 90, offset=0.5), leaf((5,), 91, offset=1.0)
    return (lambda: channel_rms_norm(x, gamma)), [x, gamma]


def frozen_mixture_case(sites, n):
    parts = [leaf((3, 4, sites), 92 + i) for i in range(n)]
    return (lambda: mixture_mean(parts)), parts


def frozen_mask_case(sites):
    h, keep = leaf((3, 5, sites), 95), Tensor(KEEP.reshape(1, -1, 1))
    return (lambda: h * keep), [h, keep]


FROZEN_CASES = [
    *(
        pytest.param(
            frozen_conv_case, (sites, with_bias, act, with_skip, depthwise),
            id=f"{'dw' if depthwise else ''}conv-{sites}" + ("-bias" if with_bias else "")
            + ("-tanh" if act else "") + ("-skip" if with_skip else ""),
        )
        for depthwise in (False, True)
        for sites in (1, 16)
        for with_bias in (False, True)
        for act, with_skip in ((False, False), (True, False), (False, True), (True, True))
    ),
    *(pytest.param(frozen_norm_case, (sites,), id=f"rms_norm-{sites}") for sites in (1, 16)),
    *(
        pytest.param(frozen_mixture_case, (sites, n), id=f"mixture-{sites}-{n}")
        for sites in (1, 16)
        for n in (2, 3)
    ),
    *(pytest.param(frozen_mask_case, (sites,), id=f"mask-{sites}") for sites in (1, 16)),
]


@pytest.mark.parametrize("make, args", FROZEN_CASES)
def test_an_op_on_frozen_inputs_builds_no_node_and_equals_the_trainable_op(make, args):
    op, leaves = make(*args)
    for t in leaves:
        t.requires_grad = False
    frozen = op()
    assert (frozen._parents, frozen._backward, frozen.requires_grad) == ((), None, False)
    for trainable in leaves:
        trainable.requires_grad = True
        node = op()
        trainable.requires_grad = False
        assert node._backward is not None and trainable in node._parents
        assert np.array_equal(frozen.data, node.data)
        assert frozen.data.tobytes() == node.data.tobytes()


def test_concat_rows_is_bit_identical_to_slicing():
    rng = np.random.default_rng(3)
    site_major = rng.normal(size=(3, 4, 5))  # (channels, sites, batch) in memory
    parts = [
        leaf((2, 3, 4), 1),
        Tensor(site_major.transpose(2, 0, 1), requires_grad=True),
        Tensor(rng.normal(size=(1, 3, 4))),
    ]
    stacked = concat_rows(parts)
    assert stacked._parents == tuple(parts)
    upstream = rng.normal(size=stacked.data.shape)
    sum_all(stacked * Tensor(upstream)).backward()
    rows = [(0, 2), (2, 7), (7, 8)]
    for part, (lo, hi) in zip(parts, rows):
        assert np.array_equal(stacked.data[lo:hi], part.data)
    for part, (lo, hi) in zip(parts[:2], rows):
        assert np.array_equal(part.grad, upstream[lo:hi])
    assert parts[2].grad is None


def site_major(a):
    return a.transpose(1, 2, 0).flags.c_contiguous


@pytest.mark.parametrize("factor", [2, 4])
def test_resampling_keeps_site_major_memory_and_matches_the_reference(factor):
    x = leaf((16, 12, 4), 100)
    up = upsample_repeat(x, factor)
    down = downsample_mean(up, factor)
    assert site_major(up.data) and site_major(down.data)
    g = np.random.default_rng(101).normal(size=(12, 4 * factor, 16)).transpose(2, 0, 1)
    assert site_major(up._backward(g)[0])
    assert site_major(down._backward(g[:, :, :4])[0])
    # A pointwise conv reads a site-major input's columns without a copy.
    assert np.shares_memory(_columns(up.data, 1), up.data)

    w3 = leaf((12, 12, 3), 102, scale=0.3)
    w1 = leaf((12, 12, 1), 103, scale=0.3)
    zero = Tensor(np.zeros(12))
    probe = np.random.default_rng(104).normal(size=(16, 12, 4))
    y = conv1d(conv1d(upsample_repeat(x, factor), w3, bias=zero), w1, bias=zero)
    y = downsample_mean(y, factor)
    sum_all(y * Tensor(probe)).backward()

    u = np.repeat(x.data, factor, axis=2)
    h = conv1d_reference(u, w3.data)
    o = conv1d_reference(h, w1.data)
    assert_close(y.data, o.reshape(16, 12, 4, factor).mean(axis=3))
    g_h, g_w1 = conv1d_reference_grads(h, w1.data, np.repeat(probe, factor, axis=2) / factor)
    g_u, g_w3 = conv1d_reference_grads(u, w3.data, g_h)
    assert_close(w1.grad, g_w1)
    assert_close(w3.grad, g_w3)
    assert_close(x.grad, g_u.reshape(16, 12, 4, factor).sum(axis=3))
