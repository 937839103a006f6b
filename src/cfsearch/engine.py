"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array; operations record a backward closure
and their parents.  Every tensor is numbered when it is made, and a node
is always made after its parents, so ``Tensor.backward()`` collects the
interior nodes it can reach and visits them in descending creation order,
which is a reverse topological order.  Only leaves (tensors without a
backward closure, such as weights) keep ``grad``: each leaf's gradient is
added once the walk is done, and intermediate gradients are dropped once
they have been passed on.

Which gradients are computed is fixed by the leaves' ``requires_grad``.
An op reads it from its parents when the graph is built: a node exists
only if some parent requires a gradient, so an op on inputs that are all
frozen, as in every scoring forward and the frozen generator pass of a
discriminator step, returns a constant with no parents.  ``conv1d``, the
costliest of them per call, also reads it before it builds anything, so
on frozen inputs it skips making its parents list and backward closure;
its data is, bit for bit, what it gives with a trainable input.  The
backward closures of the costly ops (``conv1d``, ``dwconv1d`` and their
bias, ``channel_rms_norm``, ``matmul`` and ``*``) skip the gradient of
any parent that does not require one, so freezing a tensor saves its
gradient's arithmetic.
``backward`` raises ``InvariantError`` on a loss with no trainable
ancestor, which would otherwise train nothing without a word.

Since the walk costs Python time per node, each layer op is one node:
``conv1d`` and ``dwconv1d`` add their optional bias into the output
buffer, then, on request, apply ``tanh`` and add a residual ``skip`` in
place; ``channel_rms_norm`` normalizes and scales by ``gamma`` in one
step; ``mixture_mean`` sums a list of tensors and scales the sum by one
over its length; and ``pooled_linear`` is a site mean, a matmul and a
bias add.  Each fused op does the same float operations in the same
order as the chain of engine ops it replaces, so its forward and
gradients are bit-identical to that chain.  The layer ops treat batch
rows independently, so ``concat_rows`` can stack the inputs of several
passes into one batch, whose backward hands each input its own rows of
the gradient.

Gradients accumulate: a second backward pass, or a second use of the
same tensor, adds into a leaf's ``grad`` rather than replacing it.  A
fair cycle's stacked pass relies on the second: the shared stem's output
gets the sum of every sub-network's gradient.
Supernet weights are frozen outside ``SupernetWeights.train_only``,
which clears the gradients of the tensors it trained when a step ends.

``conv1d`` is plain 2-D matmuls in each direction, which numpy hands to
BLAS.  A multi-site conv's output is a view of site-major memory, and so
are the outputs and input gradients of ``upsample_repeat`` and
``downsample_mean`` and the output of a multi-site ``concat_rows``.  So
the skip adds, mixture sums and bias-gradient reductions that follow
them combine arrays of one layout, and a pointwise conv reads a
site-major input's columns without a copy.  Every op accepts any memory
layout.

Only the operations the toy networks need are implemented.  Everything
is float64 and single-threaded per evaluation, so identical inputs give
bit-identical outputs within one numpy and BLAS build and one version of
this code.  Across builds, or after a change to the order of the
arithmetic here, results agree only to rounding.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, count
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from .errors import InvariantError, ShapeError

Array = np.ndarray

_RMS_EPS = 1e-6

# Every tensor takes the next number when it is made.  A node is made after
# its parents, so descending numbers are a reverse topological order.
_creation = count()
_by_creation = attrgetter("_seq")


def sigmoid(x: Array) -> Array:
    """Logistic function of an array, stable for large |x|; softplus's slope.

    ``1 / (1 + exp(-x))`` where x >= 0 and ``exp(x) / (1 + exp(x))``
    elsewhere, from one ``exp(-|x|)``.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def mean(a: Array) -> Array:
    """Mean of every element: the arithmetic of ``a.mean()``, with less overhead."""
    return np.add.reduce(a, axis=None) / a.size


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], Sequence[Array | None]] | None = None
        self._seq = next(_creation)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _make(data: Array, parents: tuple["Tensor", ...], backward) -> "Tensor":
        """A node over ``parents``; ``data`` must already be a float64 array."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._seq = next(_creation)
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                return out
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        return out

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every ancestor."""
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            raise InvariantError("backward on a loss with no trainable ancestor")
        # Only interior nodes need an order; a leaf's pending gradient is
        # complete once every interior node has run, whatever the leaf order.
        seen = {self}
        interior = [self] if self._backward is not None else []
        work = list(interior)
        while work:
            for parent in work.pop()._parents:
                if parent.requires_grad and parent not in seen:
                    seen.add(parent)
                    if parent._backward is not None:
                        interior.append(parent)
                        work.append(parent)
        interior.sort(key=_by_creation, reverse=True)
        grads: dict[Tensor, Array] = {self: np.ones(self.data.shape)}
        for node in interior:
            g = grads.pop(node, None)
            if g is None:
                continue
            # Backward closures may hand one array to several parents, so
            # gradients are never accumulated in place.
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                grads[parent] = grads[parent] + pg if parent in grads else pg
        for leaf, g in grads.items():
            leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other
        return Tensor._make(
            a.data + b.data,
            (a, b),
            lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other
        return Tensor._make(
            a.data - b.data,
            (a, b),
            lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
        )

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __mul__(self, other) -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other
        return Tensor._make(
            a.data * b.data,
            (a, b),
            lambda g: (
                _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
            ),
        )

    __rmul__ = __mul__

    def matmul(self, other: "Tensor") -> "Tensor":
        a, b = self, other
        return Tensor._make(
            a.data @ b.data,
            (a, b),
            lambda g: (
                g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None,
            ),
        )

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        src = self
        return Tensor._make(
            src.data.reshape(shape),
            (src,),
            lambda g: (g.reshape(src.data.shape),),
        )


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return Tensor._make(y, (x,), lambda g: (g * (1.0 - y * y),))


def softplus(x: Tensor) -> Tensor:
    y = np.logaddexp(0.0, x.data)
    return Tensor._make(y, (x,), lambda g: (g * sigmoid(x.data),))


def absolute(x: Tensor) -> Tensor:
    return Tensor._make(np.abs(x.data), (x,), lambda g: (g * np.sign(x.data),))


def square(x: Tensor) -> Tensor:
    return Tensor._make(x.data * x.data, (x,), lambda g: (g * 2.0 * x.data,))


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    return Tensor._make(
        np.asarray(mean(x.data)),
        (x,),
        lambda g: (np.broadcast_to(g / n, x.data.shape).copy(),),
    )


def sum_all(x: Tensor) -> Tensor:
    return Tensor._make(
        np.asarray(x.data.sum()),
        (x,),
        lambda g: (np.broadcast_to(g, x.data.shape).copy(),),
    )


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Mean along one axis, keeping it as size 1."""
    n = x.data.shape[axis]
    y = np.add.reduce(x.data, axis=axis, keepdims=True) / n
    return Tensor._make(
        y,
        (x,),
        lambda g: (np.broadcast_to(g / n, x.data.shape).copy(),),
    )


@lru_cache(maxsize=64)
def _side_taps(kernel: int, sites: int) -> tuple[tuple[int, slice, slice], ...]:
    """(tap, output sites, input sites) of every off-centre tap that sees data.

    Tap ``k`` reads input site ``s + k - kernel // 2`` for output site ``s``;
    a tap that reads only zero padding is left out.  The centre tap covers
    every site and is not listed.
    """
    pad = kernel // 2
    taps = []
    for k in range(kernel):
        shift = k - pad
        if shift != 0 and abs(shift) < sites:
            out = slice(max(0, -shift), sites - max(0, shift))
            inp = slice(max(0, shift), sites + min(0, shift))
            taps.append((k, out, inp))
    return tuple(taps)


def _columns(x: Array, kernel: int) -> Array:
    """The (channels * k, sites * batch) columns of ``x`` (batch, channels, sites).

    Row ``c * k + t`` holds channel ``c`` as tap ``t`` reads it, site-major,
    and zero where the tap reads padding; so ``w.reshape(c_out, c_in * k)``
    times the columns is the convolution, in (c_out, sites * batch) order.
    Site-major rows make each tap's shift one block copy per channel.  For
    k = 1 the columns are ``x`` itself, a view when ``x`` is site-major.
    """
    batch, channels, sites = x.shape
    xt = x.transpose(1, 2, 0)
    if kernel == 1:
        return xt.reshape(channels, sites * batch)
    cols = np.zeros((channels, kernel, sites, batch))
    cols[:, kernel // 2] = xt
    for k, out, inp in _side_taps(kernel, sites):
        cols[:, k, out] = xt[:, inp]
    return cols.reshape(channels * kernel, sites * batch)


def _conv_output(
    y: Array, bias: Tensor | None, tanh: bool, skip: Tensor | None
) -> tuple[Array, Array | None]:
    """A conv's output ``y`` plus ``bias``, then ``tanh``, then ``skip``; and the ``tanh`` output.

    Each step works in place on ``y``, except that the ``tanh`` output is
    kept apart when a ``skip`` follows, since its gradient needs it.
    """
    if bias is not None:
        y += bias.data[:, None]
    act = np.tanh(y, out=y) if tanh else None
    if skip is not None:
        if act is None:
            y += skip.data
        else:
            y = act + skip.data
    return y, act


def _conv_node(
    y: Array,
    x: Tensor,
    w: Tensor,
    backward,
    bias: Tensor | None,
    tanh: bool,
    skip: Tensor | None,
) -> Tensor:
    """One node for a conv's output ``y``: plus ``bias``, then ``tanh``, then ``skip``."""
    y, act = _conv_output(y, bias, tanh, skip)
    parents = [x, w]
    if bias is not None:
        parents.append(bias)
    if skip is not None:
        parents.append(skip)

    def node_backward(g: Array):
        g_skip = g
        if act is not None:
            g = g * (1.0 - act * act)
        grads = list(backward(g))
        if bias is not None:
            grads.append(np.add.reduce(g, axis=(0, 2)) if bias.requires_grad else None)
        if skip is not None:
            grads.append(g_skip)
        return grads

    return Tensor._make(y, tuple(parents), node_backward)


def conv1d(
    x: Tensor,
    w: Tensor,
    *,
    bias: Tensor | None = None,
    tanh: bool = False,
    skip: Tensor | None = None,
) -> Tensor:
    """Same-length 1-D convolution, plus a per-output-channel ``bias``.

    ``x`` is (batch, c_in, sites); ``w`` is (c_out, c_in, k) with odd k;
    ``bias`` is (c_out,).  Input is zero padded by k // 2 on both sides.
    Each direction is made of plain 2-D matmuls.  On one site only the
    centre tap sees data, so the forward is (batch, c_in) times the centre
    tap's weights, and the output stays batch-major.  On more sites the
    forward is one matmul of the flattened weights with the input's
    columns (see ``_columns``), and the output is a (batch, c_out, sites)
    view of the (c_out, sites * batch) product.  The backward is two
    matmuls: the output gradient times the input's columns, which it
    builds again only when ``w`` needs a gradient, so no graph keeps
    them; and the flipped kernel times the output gradient's columns.
    With ``tanh`` the biased output goes through ``tanh``, and a ``skip``
    of the output's shape is added last: one node, bit-identical to
    ``tanh(conv1d(x, w, bias=bias)) + skip``.
    """
    kernel = w.data.shape[2]
    if kernel % 2 != 1:
        raise ShapeError(f"conv kernels must be odd, got {kernel}")
    if x.data.ndim != 3 or w.data.ndim != 3 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"conv1d shape mismatch: input {x.data.shape} vs weight {w.data.shape}"
        )
    pad = kernel // 2
    batch, c_in, sites = x.data.shape
    c_out = w.data.shape[0]
    trainable = (
        x.requires_grad
        or w.requires_grad
        or (bias is not None and bias.requires_grad)
        or (skip is not None and skip.requires_grad)
    )
    if sites == 1:
        x2 = x.data.reshape(batch, c_in)
        y = (x2 @ w.data[:, :, pad].T).reshape(batch, c_out, 1)
        if not trainable:
            return Tensor._make(_conv_output(y, bias, tanh, skip)[0], (), None)

        def backward(g: Array):
            gx = gw = None
            g2 = g.reshape(batch, c_out)
            if w.requires_grad:
                gw = np.zeros(w.data.shape)
                gw[:, :, pad] = g2.T @ x2
            if x.requires_grad:
                gx = (g2 @ w.data[:, :, pad]).reshape(batch, c_in, 1)
            return gx, gw

        return _conv_node(y, x, w, backward, bias, tanh, skip)

    y = w.data.reshape(c_out, c_in * kernel) @ _columns(x.data, kernel)
    y = y.reshape(c_out, sites, batch).transpose(2, 0, 1)
    if not trainable:
        return Tensor._make(_conv_output(y, bias, tanh, skip)[0], (), None)

    def backward(g: Array):
        gx = gw = None
        if w.requires_grad:
            g2 = g.transpose(1, 2, 0).reshape(c_out, sites * batch)
            gw = (g2 @ _columns(x.data, kernel).T).reshape(w.data.shape)
        if x.requires_grad:
            # The input's gradient is g convolved with the flipped kernel,
            # its input and output channels swapped.
            flipped = w.data[:, :, ::-1].transpose(1, 0, 2).reshape(c_in, c_out * kernel)
            gx = flipped @ _columns(g, kernel)
            gx = gx.reshape(c_in, sites, batch).transpose(2, 0, 1)
        return gx, gw

    return _conv_node(y, x, w, backward, bias, tanh, skip)


def dwconv1d(
    x: Tensor,
    w: Tensor,
    *,
    bias: Tensor | None = None,
    tanh: bool = False,
    skip: Tensor | None = None,
) -> Tensor:
    """Channelwise 1-D convolution: ``w`` is (channels, k) with odd k,
    ``bias`` is (channels,); ``tanh`` and ``skip`` as for ``conv1d``."""
    kernel = w.data.shape[1]
    if kernel % 2 != 1:
        raise ShapeError(f"conv kernels must be odd, got {kernel}")
    if x.data.ndim != 3 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(
            f"dwconv1d shape mismatch: input {x.data.shape} vs weight {w.data.shape}"
        )
    pad = kernel // 2
    taps = _side_taps(kernel, x.data.shape[2])
    wk = w.data[:, :, None]  # (channels, k, 1): tap k broadcasts over sites
    y = x.data * wk[:, pad]
    for k, out, inp in taps:
        y[:, :, out] += x.data[:, :, inp] * wk[:, k]

    def backward(g: Array):
        gx = gw = None
        if w.requires_grad:
            gw = np.zeros(w.data.shape)
            gw[:, pad] = np.add.reduce(g * x.data, axis=(0, 2))
            for k, out, inp in taps:
                gw[:, k] = np.add.reduce(g[:, :, out] * x.data[:, :, inp], axis=(0, 2))
        if x.requires_grad:
            gx = g * wk[:, pad]
            for k, out, inp in taps:
                gx[:, :, inp] += g[:, :, out] * wk[:, k]
        return gx, gw

    return _conv_node(y, x, w, backward, bias, tanh, skip)


def mixture_mean(parts: Sequence[Tensor]) -> Tensor:
    """The mean of same-shape tensors, as one node.

    Bit-identical to ``(parts[0] + parts[1] + ...) * (1.0 / len(parts))``;
    one part is returned as it is.
    """
    if len(parts) == 1:
        return parts[0]
    y = parts[0].data + parts[1].data
    for part in parts[2:]:
        y += part.data
    scale = 1.0 / len(parts)
    y *= scale

    def backward(g: Array):
        share = g * scale
        return [share] * len(parts)

    return Tensor._make(y, tuple(parts), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """``parts`` stacked along the batch axis, as one node.

    Each part's gradient is its own rows of the output's gradient, a view.
    Multi-site parts are stacked in site-major memory, like a conv's output.
    """
    if parts[0].data.shape[2] == 1:
        y = np.concatenate([part.data for part in parts])
    else:
        y = np.concatenate([part.data.transpose(1, 2, 0) for part in parts], axis=2)
        y = y.transpose(2, 0, 1)
    edges = [0, *accumulate(part.data.shape[0] for part in parts)]

    def backward(g: Array):
        return [g[lo:hi] for lo, hi in zip(edges, edges[1:])]

    return Tensor._make(y, tuple(parts), backward)


def pooled_linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Site mean of ``x`` (batch, channels, sites), times ``w`` (channels, out), plus ``bias``.

    One node, bit-identical to
    ``mean_axis(x, 2).reshape(batch, channels).matmul(w) + bias``.
    """
    batch, channels, sites = x.data.shape
    pooled = (np.add.reduce(x.data, axis=2, keepdims=True) / sites).reshape(batch, channels)
    y = pooled @ w.data + bias.data

    def backward(g: Array):
        gx = gw = g_bias = None
        if x.requires_grad:
            g_pooled = (g @ w.data.T).reshape(batch, channels, 1)
            gx = np.empty(x.data.shape)
            gx[...] = g_pooled / sites
        if w.requires_grad:
            gw = pooled.T @ g
        if bias.requires_grad:
            g_bias = np.add.reduce(g, axis=0)
        return gx, gw, g_bias

    return Tensor._make(y, (x, w, bias), backward)


def adapt_channels(x: Tensor, target: int) -> Tensor:
    """Truncate or zero-pad the channel axis to ``target`` channels.

    Parameter-free skip-path adapter: carries the leading channels and
    fills any missing ones with zeros.
    """
    channels = x.data.shape[1]
    if channels == target:
        return x
    if channels > target:
        y = x.data[:, :target]

        def backward(g: Array):
            gx = np.zeros_like(x.data)
            gx[:, :target] = g
            return (gx,)

        return Tensor._make(y.copy(), (x,), backward)
    padding = target - channels
    y = np.pad(x.data, ((0, 0), (0, padding), (0, 0)))
    return Tensor._make(y, (x,), lambda g: (g[:, :channels].copy(),))


def upsample_repeat(x: Tensor, factor: int) -> Tensor:
    """Repeat each site ``factor`` times along the last axis.

    Works on the (channels, sites, batch) view in both directions, so the
    output and the input's gradient are views of site-major memory.
    """
    if factor == 1:
        return x
    y = np.repeat(x.data.transpose(1, 2, 0), factor, axis=1).transpose(2, 0, 1)

    def backward(g: Array):
        b, c, s = x.data.shape
        gt = g.transpose(1, 2, 0).reshape(c, s, factor, b)
        return (np.add.reduce(gt, axis=2).transpose(2, 0, 1),)

    return Tensor._make(y, (x,), backward)


def downsample_mean(x: Tensor, factor: int) -> Tensor:
    """Average pool along the last axis by an exact ``factor``.

    Works on the (channels, sites, batch) view in both directions, like
    ``upsample_repeat``.
    """
    if factor == 1:
        return x
    b, c, s = x.data.shape
    if s % factor != 0:
        raise ShapeError(f"cannot pool {s} sites by factor {factor}")
    xt = x.data.transpose(1, 2, 0).reshape(c, s // factor, factor, b)
    y = (np.add.reduce(xt, axis=2) / factor).transpose(2, 0, 1)

    def backward(g: Array):
        gt = np.repeat(g.transpose(1, 2, 0), factor, axis=1) / factor
        return (gt.transpose(2, 0, 1),)

    return Tensor._make(y, (x,), backward)


def channel_rms_norm(x: Tensor, gamma: Tensor) -> Tensor:
    """``x * rsqrt(mean_c(x**2) + eps) * gamma``.

    Normalizes each site by the RMS over channels and scales channel c by
    ``gamma[c]``.  One graph node; forward and backward do the same float
    operations in the same order as the chain of elementwise ops they
    replace, so results are bit-identical to that chain.
    """
    channels = x.data.shape[1]
    scale = gamma.data.reshape(1, channels, 1)
    power = np.add.reduce(x.data * x.data, axis=1, keepdims=True) / channels
    r = 1.0 / np.sqrt(power + _RMS_EPS)
    normed = x.data * r
    y = normed * scale

    def backward(g: Array):
        gx = g_gamma = None
        if gamma.requires_grad:
            g_gamma = np.add.reduce(g * normed, axis=(0, 2)).reshape(gamma.data.shape)
        if x.requires_grad:
            g = g * scale
            g_r = np.add.reduce(g * x.data, axis=1, keepdims=True)
            g_power = g_r * (-0.5) * r**3
            gx = g * r + g_power / channels * 2.0 * x.data
        return gx, g_gamma

    return Tensor._make(y, (x, gamma), backward)


def finite_difference_gradient(
    fn: Callable[[], float], tensor: Tensor, step: float = 1e-5
) -> Array:
    """Central finite differences of ``fn`` with respect to ``tensor``.

    ``fn`` must recompute the scalar from current ``tensor.data``.  Used
    as the independent oracle for backward-pass checks; touches no
    autodiff machinery.
    """
    base = tensor.data
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = fn()
        flat[i] = keep - step
        lo = fn()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad
