"""Supernet weight store, toy block realizations, and subnet views.

All candidate operators of every layer own weights sized for the largest
channel width, and every activation tensor physically carries that width.
A narrower subnet is expressed by masking: the layer output is multiplied
by its scale-factor vector and by a 0/1 mask that keeps the channels with
the largest factor magnitudes.  Masked channels are exactly zero
downstream, so a subnet "inherits" supernet weights with no copying and
two instantiations of the same genome are bit-identical.

Block cores are dense 1-D analogues of the registered operator kinds:

    conv3x3            local mixing conv
    res_block          conv - tanh - conv, plus skip
    dws_block          channelwise conv - tanh - pointwise mix
    group_res_block    res_block with block-diagonal (2-group) weights
    shrink_res_block   bottleneck to ceil(width/2), back up, plus skip
    context_res_block  conv - tanh - pointwise, plus skip

Recursion applies the same block again on its own output (weights
shared), adding each pass residually; a layer ends with a channel-RMS
normalization scaled by its factor vector.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import engine
from .engine import Tensor, adapt_channels, conv1d, downsample_mean, dwconv1d
from .engine import channel_rms_norm, tanh, upsample_repeat
from .errors import ConfigError, ShapeError
from .space import ArchitectureGenome, SupernetSpec, UnitSpec, require_valid
from .sparsity import GAMMA_INIT, active_channel_mask

CHECKPOINT_MAGIC = b"CFN1"
CHECKPOINT_VERSION = 1


def _mid_width(full: int) -> int:
    return max(1, -(-full // 2))


def _group_mask(dst: int, src: int, groups: int) -> np.ndarray:
    """Block-diagonal 0/1 mask over a (dst, src, 1) conv weight."""
    mask = np.zeros((dst, src, 1), dtype=np.float64)
    d_edges = np.linspace(0, dst, groups + 1).round().astype(int)
    s_edges = np.linspace(0, src, groups + 1).round().astype(int)
    for g in range(groups):
        mask[d_edges[g] : d_edges[g + 1], s_edges[g] : s_edges[g + 1]] = 1.0
    return mask


class SupernetWeights:
    """Every trainable tensor of the supernet, in declaration order."""

    def __init__(self, spec: SupernetSpec):
        self.spec = spec
        self.tensors: "OrderedDict[str, Tensor]" = OrderedDict()
        self.group_masks: dict[str, np.ndarray] = {}
        self._named: dict[tuple[str, bool], tuple[tuple[str, Tensor], ...]] = {}

    # -- construction ------------------------------------------------------

    @staticmethod
    def create(spec: SupernetSpec, seed: int) -> "SupernetWeights":
        """Initialize weights from a seed; scale factors start at 0.5.

        Draws happen in declaration order from a single stream, so a
        given (spec, seed) pair always produces the same bytes.
        """
        rng = np.random.default_rng(seed)
        w = SupernetWeights(spec)
        full = spec.max_width

        def conv_param(name: str, dst: int, src: int, kernel: int, groups: int = 1):
            scale = 1.0 / np.sqrt(src * kernel)
            data = rng.normal(0.0, scale, size=(dst, src, kernel))
            if groups > 1:
                mask = _group_mask(dst, src, groups)
                data = data * mask
                w.group_masks[name] = mask
            w._add(name, data)
            w._add(name[:-1] + "b", np.zeros(dst))

        for p, path in enumerate(spec.paths):
            conv_param(f"g/p{p}/stem/w", full, spec.input_channels, 3)
            for l, layer in enumerate(path.layers):
                for m, op in enumerate(layer.operator_candidates):
                    for u, unit in enumerate(op.units):
                        if unit.kind == "residual":
                            continue
                        prefix = f"g/p{p}/l{l}/op{m}/u{u}/"
                        src = _tag_width(unit.src, full)
                        dst = _tag_width(unit.dst, full)
                        if unit.kind == "conv":
                            conv_param(prefix + "w", dst, src, unit.kernel, unit.groups)
                        elif unit.kind == "dwconv":
                            w._add(
                                prefix + "w",
                                rng.normal(0.0, 1.0 / np.sqrt(unit.kernel), (src, unit.kernel)),
                            )
                            w._add(prefix + "b", np.zeros(src))
                w._add(f"g/p{p}/l{l}/gamma", np.full(full, GAMMA_INIT))
            conv_param(f"g/p{p}/head/w", spec.input_channels, full, 1)
        for d, disc in enumerate(spec.discriminators):
            conv_param(f"d/{d}/c1/w", disc.width, spec.input_channels, 3)
            conv_param(f"d/{d}/c2/w", disc.width, disc.width, 3)
            w._add(f"d/{d}/out/w", rng.normal(0.0, 1.0 / np.sqrt(disc.width), (disc.width, 1)))
            w._add(f"d/{d}/out/b", np.zeros(1))
        return w

    def _add(self, name: str, data: np.ndarray) -> None:
        self.tensors[name] = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
        self._named.clear()

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def gamma(self, path_index: int, layer: int) -> Tensor:
        return self.tensors[f"g/p{path_index}/l{layer}/gamma"]

    def gamma_tensors(self, path_index: int) -> list[Tensor]:
        path = self.spec.paths[path_index]
        return [self.gamma(path_index, l) for l in range(path.num_layers)]

    def named(self, prefix: str, include_gamma: bool = True) -> tuple[tuple[str, Tensor], ...]:
        """(name, tensor) under ``prefix`` in declaration order, built once per prefix."""
        key = (prefix, include_gamma)
        found = self._named.get(key)
        if found is None:
            found = self._named[key] = tuple(
                (name, tensor)
                for name, tensor in self.tensors.items()
                if name.startswith(prefix) and (include_gamma or not name.endswith("/gamma"))
            )
        return found

    # -- optimization ------------------------------------------------------

    @contextmanager
    def train_only(self, trainable: Iterable[Tensor]) -> Iterator[None]:
        """Let only ``trainable`` record gradients inside the block.

        Every other tensor is frozen, so graphs built inside the block
        compute no gradient for it.  On exit, by an exception too, every
        tensor requires a gradient again and holds none, so no gradient
        outlives the step that computed it.
        """
        trainable = set(trainable)
        for tensor in self.tensors.values():
            tensor.requires_grad = tensor in trainable
        try:
            yield
        finally:
            for tensor in self.tensors.values():
                tensor.requires_grad = True
                tensor.grad = None

    def zero_grad(self, prefix: str = "") -> None:
        for _, tensor in self.named(prefix):
            tensor.zero_grad()

    def sgd_step(self, prefix: str, lr: float, include_gamma: bool = False) -> None:
        """Descend each gradient under ``prefix`` by ``lr`` and clear it."""
        for name, tensor in self.named(prefix, include_gamma=include_gamma):
            if tensor.grad is None:
                continue
            tensor.data -= lr * tensor.grad
            mask = self.group_masks.get(name)
            if mask is not None:
                tensor.data *= mask
            tensor.grad = None

    def clone(self) -> "SupernetWeights":
        other = SupernetWeights(self.spec)
        for name, tensor in self.tensors.items():
            other._add(name, tensor.data.copy())
        other.group_masks = {k: v.copy() for k, v in self.group_masks.items()}
        return other

    # -- checkpointing -----------------------------------------------------

    def save(self, path: str) -> None:
        """Binary container: header with a shape table, then raw float64.

        Layout: magic, u32 version, u32 tensor count; per tensor a u16
        name length, the UTF-8 name, u8 rank, u32 dims; then every
        tensor's data as little-endian float64 in the same order.
        """
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(self.tensors)))
            for name, tensor in self.tensors.items():
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", tensor.data.ndim))
                for dim in tensor.data.shape:
                    fh.write(struct.pack("<I", dim))
            for tensor in self.tensors.values():
                fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())

    @staticmethod
    def load(spec: SupernetSpec, path: str) -> "SupernetWeights":
        """Read a checkpoint; the shape table must match ``spec`` exactly.

        An unreadable, truncated or otherwise undecodable file raises
        ``ConfigError`` naming ``path``.
        """
        try:
            with open(path, "rb") as fh:
                return SupernetWeights._decode(spec, path, fh.read())
        except (OSError, struct.error, ValueError) as exc:
            raise ConfigError(f"cannot load checkpoint {path}: {exc}") from exc

    @staticmethod
    def _decode(spec: SupernetSpec, path: str, blob: bytes) -> "SupernetWeights":
        if blob[:4] != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path} is not a supernet checkpoint")
        version, count = struct.unpack_from("<II", blob, 4)
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        offset = 12
        entries: list[tuple[str, tuple[int, ...]]] = []
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", blob, offset)
            offset += 4 * rank
            entries.append((name, tuple(dims)))
        weights = SupernetWeights.create(spec, seed=0)
        expected = [(n, t.data.shape) for n, t in weights.tensors.items()]
        if expected != entries:
            raise ConfigError(
                f"checkpoint {path} does not match the spec: tensor table differs"
            )
        for name, dims in entries:
            size = int(np.prod(dims)) if dims else 1
            data = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape(dims)
            offset += 8 * size
            weights.tensors[name].data = data.astype(np.float64).copy()
        if offset != len(blob):
            raise ConfigError(f"checkpoint {path} has {len(blob) - offset} trailing bytes")
        return weights


def _tag_width(tag: str, full: int) -> int:
    if tag in ("in", "out"):
        return full
    if tag == "mid":
        return _mid_width(full)
    raise ValueError(f"unknown width tag {tag!r}")


# -- forward passes --------------------------------------------------------


def _resample(x: Tensor, ratio: Fraction) -> Tensor:
    if ratio == 1:
        return x
    if ratio > 1:
        return upsample_repeat(x, int(ratio))
    return downsample_mean(x, int(1 / ratio))


def _block_core(
    weights: SupernetWeights, p: int, l: int, m: int, units: tuple[UnitSpec, ...], x: Tensor
) -> Tensor:
    """Run one operator block (without normalization) on full-width input."""
    transform_indices = [i for i, u in enumerate(units) if u.kind != "residual"]
    last_transform = transform_indices[-1]
    h = x
    for i, unit in enumerate(units):
        if unit.kind == "residual":
            h = h + adapt_channels(x, h.data.shape[1])
            continue
        prefix = f"g/p{p}/l{l}/op{m}/u{i}/"
        w = weights[prefix + "w"]
        b = weights[prefix + "b"]
        if unit.kind == "conv":
            mask = weights.group_masks.get(prefix + "w")
            kernel_w = w if mask is None else w * Tensor(mask)
            h = conv1d(h, kernel_w, bias=b)
        else:
            h = dwconv1d(h, w, bias=b)
        if i < last_transform:
            h = tanh(h)
    return h


@dataclass
class GeneratorView:
    """A callable sub-generator borrowing supernet weights.

    ``operator_assignment`` of None means the uniform mixture of all
    candidates per layer (the full-supernet form used for path scoring
    and for discriminator updates).  ``channel_widths`` are the active
    output widths per layer; the widest width skips masking entirely.
    """

    weights: SupernetWeights
    path_index: int
    operator_assignment: tuple[int, ...] | None
    channel_widths: tuple[int, ...]
    recursion_depths: tuple[int, ...]

    def __call__(self, x: Tensor) -> Tensor:
        spec = self.weights.spec
        p = self.path_index
        path = spec.paths[p]
        expected = (spec.input_channels, spec.input_sites)
        if x.data.ndim != 3 or (x.data.shape[1], x.data.shape[2]) != expected:
            raise ShapeError(
                f"generator input must be (batch, {expected[0]}, {expected[1]}), "
                f"got {x.data.shape}"
            )
        full = spec.max_width
        h = _resample(x, path.resolution_schedule[0])
        stem_w = self.weights[f"g/p{p}/stem/w"]
        stem_b = self.weights[f"g/p{p}/stem/b"]
        h = tanh(conv1d(h, stem_w, bias=stem_b))
        prev_scale = path.resolution_schedule[0]
        for l, layer in enumerate(path.layers):
            scale = path.resolution_schedule[l]
            if l > 0:
                h = _resample(h, scale / prev_scale)
            prev_scale = scale

            if self.operator_assignment is None:
                candidates = range(layer.num_operators)
            else:
                candidates = (self.operator_assignment[l],)

            def block(inp: Tensor) -> Tensor:
                parts = [
                    _block_core(self.weights, p, l, m, layer.operator_candidates[m].units, inp)
                    for m in candidates
                ]
                out = parts[0]
                for part in parts[1:]:
                    out = out + part
                if len(parts) > 1:
                    out = out * (1.0 / len(parts))
                return out

            h = block(h)
            for _ in range(self.recursion_depths[l] - 1):
                h = h + block(h)

            gamma = self.weights.gamma(p, l)
            width = self.channel_widths[l]
            keep = active_channel_mask(gamma.data, width) if width < full else None
            h = channel_rms_norm(h, gamma, keep)
        head_w = self.weights[f"g/p{p}/head/w"]
        head_b = self.weights[f"g/p{p}/head/b"]
        return conv1d(h, head_w, bias=head_b)


def subnet_view(weights: SupernetWeights, genome: ArchitectureGenome) -> GeneratorView:
    """View for one genome: its operators, widths, and recursion depths."""
    spec = weights.spec
    require_valid(spec, genome)
    path = spec.paths[genome.path_index]
    widths = tuple(spec.channel_choices[i] for i in genome.channel_assignment)
    depths = tuple(
        layer.recursion_choices[i]
        for layer, i in zip(path.layers, genome.recursion_assignment)
    )
    return GeneratorView(
        weights=weights,
        path_index=genome.path_index,
        operator_assignment=genome.operator_assignment,
        channel_widths=widths,
        recursion_depths=depths,
    )


def mixed_view(weights: SupernetWeights, path_index: int) -> GeneratorView:
    """Full-capacity view of a path: operators averaged, widths maximal."""
    spec = weights.spec
    path = spec.paths[path_index]
    return GeneratorView(
        weights=weights,
        path_index=path_index,
        operator_assignment=None,
        channel_widths=tuple(spec.max_width for _ in path.layers),
        recursion_depths=tuple(layer.recursion_choices[-1] for layer in path.layers),
    )


@dataclass
class DiscriminatorView:
    """Callable score head for one discriminator path."""

    weights: SupernetWeights
    disc_index: int

    def __call__(self, y: Tensor) -> Tensor:
        spec = self.weights.spec
        d = self.disc_index
        disc = spec.discriminators[d]
        width = disc.width
        w1 = self.weights[f"d/{d}/c1/w"]
        b1 = self.weights[f"d/{d}/c1/b"]
        h = tanh(conv1d(y, w1, bias=b1))
        ratio = disc.resolution_schedule[-1] / disc.resolution_schedule[0]
        if ratio > 1 and h.data.shape[2] % int(ratio) == 0:
            h = downsample_mean(h, int(ratio))
        w2 = self.weights[f"d/{d}/c2/w"]
        b2 = self.weights[f"d/{d}/c2/b"]
        h = tanh(conv1d(h, w2, bias=b2))
        pooled = engine.mean_axis(h, axis=2).reshape(h.data.shape[0], width)
        return pooled.matmul(self.weights[f"d/{d}/out/w"]) + self.weights[f"d/{d}/out/b"]
