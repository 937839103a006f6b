"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array; operations record a backward closure
and their parents.  Every tensor is numbered when it is made, and a node
is always made after its parents, so ``Tensor.backward()`` collects the
nodes it can reach and visits them in descending creation order, which
is a reverse topological order.  Only leaves (tensors without a backward
closure, such as weights) keep ``grad``; intermediate gradients are
dropped once they have been passed on.

Which gradients are computed is fixed by the leaves' ``requires_grad``.
An op reads it from its parents when the graph is built: a node exists
only if some parent requires a gradient.  The backward closures of the
costly ops (``conv1d``, ``dwconv1d`` and their bias, ``channel_rms_norm``,
``matmul`` and ``*``) skip the gradient of any parent that does not
require one, so freezing a tensor saves its gradient's arithmetic.
``backward`` raises ``InvariantError`` on a loss with no trainable
ancestor, which would otherwise train nothing without a word.

Since the walk costs Python time per node, each layer op is one node:
``conv1d`` and ``dwconv1d`` add their optional bias into the output
buffer, and ``channel_rms_norm`` normalizes, scales by ``gamma`` and
applies the channel mask in one step.

Gradients accumulate: a second backward pass, or a second use of the
same tensor, adds into a leaf's ``grad`` rather than replacing it, which
is what the gradient-accumulation step of supernet training relies on.
``SupernetWeights.train_only`` clears every gradient when a step ends.

Only the operations the toy networks need are implemented.  Everything
is float64 and single-threaded per evaluation, so identical inputs give
bit-identical outputs within one numpy build and one version of this
code.  Across numpy builds, or after a change to the order of the
arithmetic here, results agree only to rounding.
"""

from __future__ import annotations

from itertools import count
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
    """Logistic function of an array, stable for large |x|; softplus's slope."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
        needs = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs:
            out._parents = parents
            out._backward = backward
        return out

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every ancestor."""
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            raise InvariantError("backward on a loss with no trainable ancestor")
        nodes = {self}
        work = [self]
        while work:
            for parent in work.pop()._parents:
                if parent.requires_grad and parent not in nodes:
                    nodes.add(parent)
                    work.append(parent)
        grads: dict[Tensor, Array] = {self: np.ones_like(self.data)}
        for node in sorted(nodes, key=_by_creation, reverse=True):
            g = grads.pop(node, None)
            if g is None:
                continue
            # Backward closures may hand one array to several parents, so
            # gradients are never accumulated in place.
            if node._backward is None:
                node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                grads[parent] = grads[parent] + pg if parent in grads else pg

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
        np.asarray(x.data.mean()),
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
    y = x.data.mean(axis=axis, keepdims=True)
    return Tensor._make(
        y,
        (x,),
        lambda g: (np.broadcast_to(g / n, x.data.shape).copy(),),
    )


def _side_taps(kernel: int, sites: int) -> list[tuple[int, slice, slice]]:
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
    return taps


def _tap_weight_grad(g: Array, x: Array) -> Array:
    """Sum over batch and sites of g (batch, c_out, s) times x (batch, c_in, s).

    One 2-D matmul; the same arithmetic as
    ``np.tensordot(g, x, axes=([0, 2], [0, 2]))`` without its Python overhead.
    """
    return g.transpose(1, 0, 2).reshape(g.shape[1], -1) @ x.transpose(0, 2, 1).reshape(
        -1, x.shape[1]
    )


def _with_bias(y: Array, x: Tensor, w: Tensor, bias: Tensor | None, backward):
    """One node for a conv, its bias added in place into the output."""
    if bias is None:
        return Tensor._make(y, (x, w), backward)
    y += bias.data[:, None]
    return Tensor._make(
        y,
        (x, w, bias),
        lambda g: (*backward(g), g.sum(axis=(0, 2)) if bias.requires_grad else None),
    )


def conv1d(x: Tensor, w: Tensor, *, bias: Tensor | None = None) -> Tensor:
    """Same-length 1-D convolution, plus a per-output-channel ``bias``.

    ``x`` is (batch, c_in, sites); ``w`` is (c_out, c_in, k) with odd k;
    ``bias`` is (c_out,).  Input is zero padded by k // 2 on both sides.
    Each tap that sees data is one matmul into the output.
    """
    kernel = w.data.shape[2]
    if kernel % 2 != 1:
        raise ShapeError(f"conv kernels must be odd, got {kernel}")
    if x.data.ndim != 3 or w.data.ndim != 3 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"conv1d shape mismatch: input {x.data.shape} vs weight {w.data.shape}"
        )
    pad = kernel // 2
    taps = _side_taps(kernel, x.data.shape[2])
    y = w.data[:, :, pad] @ x.data
    for k, out, inp in taps:
        y[:, :, out] += w.data[:, :, k] @ x.data[:, :, inp]

    def backward(g: Array):
        gx = gw = None
        if w.requires_grad:
            gw = np.zeros_like(w.data)
            gw[:, :, pad] = _tap_weight_grad(g, x.data)
            for k, out, inp in taps:
                gw[:, :, k] = _tap_weight_grad(g[:, :, out], x.data[:, :, inp])
        if x.requires_grad:
            gx = w.data[:, :, pad].T @ g
            for k, out, inp in taps:
                gx[:, :, inp] += w.data[:, :, k].T @ g[:, :, out]
        return gx, gw

    return _with_bias(y, x, w, bias, backward)


def dwconv1d(x: Tensor, w: Tensor, *, bias: Tensor | None = None) -> Tensor:
    """Channelwise 1-D convolution: ``w`` is (channels, k) with odd k,
    ``bias`` is (channels,)."""
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
            gw = np.zeros_like(w.data)
            gw[:, pad] = (g * x.data).sum(axis=(0, 2))
            for k, out, inp in taps:
                gw[:, k] = (g[:, :, out] * x.data[:, :, inp]).sum(axis=(0, 2))
        if x.requires_grad:
            gx = g * wk[:, pad]
            for k, out, inp in taps:
                gx[:, :, inp] += g[:, :, out] * wk[:, k]
        return gx, gw

    return _with_bias(y, x, w, bias, backward)


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
    """Repeat each site ``factor`` times along the last axis."""
    if factor == 1:
        return x
    y = np.repeat(x.data, factor, axis=2)

    def backward(g: Array):
        b, c, s = x.data.shape
        return (g.reshape(b, c, s, factor).sum(axis=3),)

    return Tensor._make(y, (x,), backward)


def downsample_mean(x: Tensor, factor: int) -> Tensor:
    """Average pool along the last axis by an exact ``factor``."""
    if factor == 1:
        return x
    b, c, s = x.data.shape
    if s % factor != 0:
        raise ShapeError(f"cannot pool {s} sites by factor {factor}")
    y = x.data.reshape(b, c, s // factor, factor).mean(axis=3)

    def backward(g: Array):
        return (np.repeat(g, factor, axis=2) / factor,)

    return Tensor._make(y, (x,), backward)


def channel_rms_norm(x: Tensor, gamma: Tensor, keep: Array | None = None) -> Tensor:
    """``x * rsqrt(mean_c(x**2) + eps) * gamma``, times ``keep`` if given.

    Normalizes each site by the RMS over channels, scales channel c by
    ``gamma[c]`` and, when a 0/1 ``keep`` vector is given, zeroes the
    channels it drops.  One graph node; forward and backward do the same
    float operations in the same order as the chain of elementwise ops
    they replace, so results are bit-identical to that chain.
    """
    channels = x.data.shape[1]
    scale = gamma.data.reshape(1, channels, 1)
    r = 1.0 / np.sqrt((x.data * x.data).mean(axis=1, keepdims=True) + _RMS_EPS)
    normed = x.data * r
    y = normed * scale
    if keep is not None:
        keep = keep.reshape(1, channels, 1)
        y *= keep

    def backward(g: Array):
        gx = g_gamma = None
        if keep is not None:
            g = g * keep
        if gamma.requires_grad:
            g_gamma = _unbroadcast(g * normed, scale.shape).reshape(gamma.data.shape)
        if x.requires_grad:
            g = g * scale
            g_r = _unbroadcast(g * x.data, r.shape)
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
