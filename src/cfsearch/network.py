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

Each conv is one graph node together with its bias, the ``tanh`` that
follows it (after the stem, after both discriminator convs and after
every block transform but the last) and, on a block's last transform,
the block's residual skip.  A mixed layer's average over its candidates
is one ``mixture_mean`` node, and the discriminator's site mean, linear
map and bias are one ``pooled_linear`` node.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .engine import Tensor, adapt_channels, conv1d, downsample_mean, dwconv1d
from .engine import channel_rms_norm, mixture_mean, pooled_linear, upsample_repeat
from .errors import ConfigError, ShapeError
from .space import ArchitectureGenome, SupernetSpec, require_valid
from .sparsity import GAMMA_INIT, active_channel_mask

CHECKPOINT_MAGIC = b"CFN1"
CHECKPOINT_VERSION = 1


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
        self._plans: dict[tuple[int, int, int], tuple] = {}

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
                        src, dst = unit.widths(full, full)
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
        self._plans.clear()

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

    def block_plan(self, p: int, l: int, m: int) -> tuple:
        """The transform units of operator ``m`` at layer ``l`` of path ``p``, built once.

        One entry per conv or dwconv unit, in order: (is a dense conv,
        weight, bias, group mask as a constant tensor or None, tanh after
        it, residual skip after it).  A residual unit always follows a
        transform, whose entry takes it as its skip.
        """
        key = (p, l, m)
        plan = self._plans.get(key)
        if plan is None:
            units = self.spec.paths[p].layers[l].operator_candidates[m].units
            last = max(i for i, unit in enumerate(units) if unit.kind != "residual")
            steps = []
            for i, unit in enumerate(units):
                if unit.kind == "residual":
                    continue
                prefix = f"g/p{p}/l{l}/op{m}/u{i}/"
                mask = self.group_masks.get(prefix + "w")
                steps.append(
                    (
                        unit.kind == "conv",
                        self.tensors[prefix + "w"],
                        self.tensors[prefix + "b"],
                        None if mask is None else Tensor(mask),
                        i < last,
                        i + 1 < len(units) and units[i + 1].kind == "residual",
                    )
                )
            plan = self._plans[key] = tuple(steps)
        return plan

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


# -- forward passes --------------------------------------------------------


def _resample(x: Tensor, ratio: Fraction) -> Tensor:
    if ratio == 1:
        return x
    if ratio > 1:
        return upsample_repeat(x, int(ratio))
    return downsample_mean(x, int(1 / ratio))


def _block_core(weights: SupernetWeights, p: int, l: int, m: int, x: Tensor) -> Tensor:
    """Run one operator block (without normalization) on full-width input."""
    h = x
    for dense, w, b, mask, tanh, residual in weights.block_plan(p, l, m):
        skip = adapt_channels(x, w.data.shape[0]) if residual else None
        if dense:
            kernel_w = w if mask is None else w * mask
            h = conv1d(h, kernel_w, bias=b, tanh=tanh, skip=skip)
        else:
            h = dwconv1d(h, w, bias=b, tanh=tanh, skip=skip)
    return h


class StageTrail:
    """The stage outputs of the last forward a ``GeneratorView`` ran with it.

    ``keys[i]`` is stage ``i``'s own key (see ``GeneratorView.stage_keys``)
    and ``outputs[i]`` its output array, kept without its graph.  Stage
    ``i``'s output depends on the keys of stages ``0..i`` together, so the
    outputs of a matching key prefix are exactly what a fresh forward would
    recompute.  The trail also depends on the input array and the weights
    object it was built on; it starts over when either differs, compared
    by identity.  Weights changed in place are not noticed, so a trail is
    only sound over fixed weights.
    """

    def __init__(self) -> None:
        self.x: np.ndarray | None = None
        self.weights: SupernetWeights | None = None
        self.keys: list = []
        self.outputs: list[np.ndarray] = []

    def resume(self, x: Tensor, weights: SupernetWeights, keys: list) -> tuple[int, Tensor]:
        """(stages reused, the last reused output or ``x``); drops the rest."""
        n = 0
        if self.x is x.data and self.weights is weights:
            limit = min(len(self.outputs), len(keys))
            while n < limit and self.keys[n] == keys[n]:
                n += 1
        else:
            self.x, self.weights = x.data, weights
        del self.outputs[n:]
        self.keys = keys
        return n, Tensor(self.outputs[n - 1]) if n else x

    def cut(self, stages: int) -> None:
        """Keep only the first ``stages`` outputs, so a resumed forward runs the rest."""
        del self.outputs[stages:]


@dataclass
class GeneratorView:
    """A callable sub-generator borrowing supernet weights.

    ``operator_assignment`` of None means the uniform mixture of all
    candidates per layer (the full-supernet form used for path scoring
    and for discriminator updates).  ``channel_widths`` are the active
    output widths per layer; the widest width skips masking entirely.

    A forward runs 2L + 1 stages in order, then the head: the stem, then
    per layer ``l`` its block core (the resample into the layer, the
    operator block and its recursion passes) and its channel norm.  Each
    stage's own key names the choices it adds: the stem's is the path, a
    core's is ``(op_l, depth_l)`` and a norm's is ``width_l``.  A stage's
    output depends on its own key and on the keys of every earlier stage.
    """

    weights: SupernetWeights
    path_index: int
    operator_assignment: tuple[int, ...] | None
    channel_widths: tuple[int, ...]
    recursion_depths: tuple[int, ...]

    def stage_keys(self) -> list:
        """Each stage's own key, in stage order."""
        ops = self.operator_assignment
        keys: list = [self.path_index]
        for l, width in enumerate(self.channel_widths):
            keys.append((None if ops is None else ops[l], self.recursion_depths[l]))
            keys.append(width)
        return keys

    def __call__(self, x: Tensor, trail: StageTrail | None = None) -> Tensor:
        """Run the generator on ``x``.

        With a ``trail``, the forward resumes after the longest stage
        prefix whose keys match the trail's, and records the stages it
        runs there.  Without one, every stage runs.
        """
        spec = self.weights.spec
        p = self.path_index
        expected = (spec.input_channels, spec.input_sites)
        if x.data.ndim != 3 or (x.data.shape[1], x.data.shape[2]) != expected:
            raise ShapeError(
                f"generator input must be (batch, {expected[0]}, {expected[1]}), "
                f"got {x.data.shape}"
            )
        start, h = (0, x) if trail is None else trail.resume(x, self.weights, self.stage_keys())
        for stage in range(start, 2 * len(self.channel_widths) + 1):
            h = self._stage(stage, h)
            if trail is not None:
                trail.outputs.append(h.data)
        head_w = self.weights[f"g/p{p}/head/w"]
        head_b = self.weights[f"g/p{p}/head/b"]
        return conv1d(h, head_w, bias=head_b)

    def _stage(self, stage: int, h: Tensor) -> Tensor:
        """Stage ``stage`` of the forward applied to the previous stage's output."""
        p = self.path_index
        path = self.weights.spec.paths[p]
        schedule = path.resolution_schedule
        if stage == 0:
            h = _resample(h, schedule[0])
            stem_w = self.weights[f"g/p{p}/stem/w"]
            stem_b = self.weights[f"g/p{p}/stem/b"]
            return conv1d(h, stem_w, bias=stem_b, tanh=True)
        l, is_norm = divmod(stage - 1, 2)
        if is_norm:
            gamma = self.weights.gamma(p, l)
            width = self.channel_widths[l]
            full = self.weights.spec.max_width
            keep = active_channel_mask(gamma.data, width) if width < full else None
            return channel_rms_norm(h, gamma, keep)
        if l > 0:
            h = _resample(h, schedule[l] / schedule[l - 1])
        layer = path.layers[l]
        if self.operator_assignment is None:
            candidates = range(layer.num_operators)
        else:
            candidates = (self.operator_assignment[l],)

        def block(inp: Tensor) -> Tensor:
            return mixture_mean([_block_core(self.weights, p, l, m, inp) for m in candidates])

        h = block(h)
        for _ in range(self.recursion_depths[l] - 1):
            h = h + block(h)
        return h


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
        w1 = self.weights[f"d/{d}/c1/w"]
        b1 = self.weights[f"d/{d}/c1/b"]
        h = conv1d(y, w1, bias=b1, tanh=True)
        ratio = disc.resolution_schedule[-1] / disc.resolution_schedule[0]
        if ratio > 1 and h.data.shape[2] % int(ratio) == 0:
            h = downsample_mean(h, int(ratio))
        w2 = self.weights[f"d/{d}/c2/w"]
        b2 = self.weights[f"d/{d}/c2/b"]
        h = conv1d(h, w2, bias=b2, tanh=True)
        return pooled_linear(h, self.weights[f"d/{d}/out/w"], self.weights[f"d/{d}/out/b"])
