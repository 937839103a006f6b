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
    shrink_res_block   bottleneck to ceil(width/2), back up, plus skip
    context_res_block  conv - tanh - pointwise, plus skip

A layer ends with a channel-RMS normalization scaled by its factor
vector, then the channel mask of its width.  The last layer's mask is
not applied to its output: the head multiplies its own weight by the
mask instead, which gives the same values bit for bit.

Each conv is one graph node together with its bias, the ``tanh`` that
follows it (after the stem, after both discriminator convs and after
every block transform but the last) and, on a block's last transform,
the block's residual skip.  A mixed layer's average over its candidates
is one ``mixture_mean`` node, and the discriminator's site mean, linear
map and bias are one ``pooled_linear`` node.  ``stacked_forward`` runs
several views of one path and one set of widths as one batch that shares
the stem and the head.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .engine import Tensor, adapt_channels, conv1d, downsample_mean, dwconv1d
from .engine import channel_rms_norm, concat_rows, mixture_mean, pooled_linear, upsample_repeat
from .errors import ConfigError, InvariantError, ShapeError
from .space import ArchitectureGenome, SupernetSpec, require_valid
from .sparsity import GAMMA_INIT, active_channel_mask

CHECKPOINT_MAGIC = b"CFN1"
CHECKPOINT_VERSION = 1


class SupernetWeights:
    """Every tensor of the supernet, in declaration order; frozen outside ``train_only``."""

    def __init__(self, spec: SupernetSpec):
        self.spec = spec
        self.tensors: "OrderedDict[str, Tensor]" = OrderedDict()
        self._named: dict[tuple[str, bool], tuple[tuple[str, Tensor], ...]] = {}
        self._plans: dict[tuple[int, int, int], tuple] = {}
        self._convs: dict[tuple[int, str], tuple[Tensor, Tensor]] = {}

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

        def conv_param(name: str, dst: int, src: int, kernel: int):
            scale = 1.0 / np.sqrt(src * kernel)
            w._add(name, rng.normal(0.0, scale, size=(dst, src, kernel)))
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
                            conv_param(prefix + "w", dst, src, unit.kernel)
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
        self.tensors[name] = Tensor(data)
        self._named.clear()
        self._plans.clear()
        self._convs.clear()

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

    def path_conv(self, p: int, part: str) -> tuple[Tensor, Tensor]:
        """The weight and bias of path ``p``'s ``stem`` or ``head`` conv, looked up once."""
        key = (p, part)
        found = self._convs.get(key)
        if found is None:
            prefix = f"g/p{p}/{part}/"
            found = self._convs[key] = (self.tensors[prefix + "w"], self.tensors[prefix + "b"])
        return found

    def block_plan(self, p: int, l: int, m: int) -> tuple:
        """The transform units of operator ``m`` at layer ``l`` of path ``p``, built once.

        One entry per conv or dwconv unit, in order: (is a dense conv,
        weight, bias, tanh after it, residual skip after it).  A residual
        unit always follows a transform, whose entry takes it as its skip.
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
                steps.append(
                    (
                        unit.kind == "conv",
                        self.tensors[prefix + "w"],
                        self.tensors[prefix + "b"],
                        i < last,
                        i + 1 < len(units) and units[i + 1].kind == "residual",
                    )
                )
            plan = self._plans[key] = tuple(steps)
        return plan

    # -- optimization ------------------------------------------------------

    @contextmanager
    def train_only(self, trainable: Iterable[Tensor]) -> Iterator[None]:
        """Let ``trainable`` record gradients inside the block.

        Every tensor is frozen outside this block, so graphs built inside
        it compute gradients for ``trainable`` alone.  On exit, by an
        exception too, ``trainable`` is frozen again and holds no
        gradient, so no gradient outlives the step that computed it.  Only
        the tensors given are read or written.
        """
        trainable = tuple(trainable)
        try:
            for tensor in trainable:
                tensor.requires_grad = True
            yield
        finally:
            for tensor in trainable:
                tensor.requires_grad = False
                tensor.grad = None

    def sgd_step(self, prefix: str, lr: float) -> None:
        """Descend each gradient under ``prefix`` by ``lr`` and clear it; skip tensors with none."""
        for _, tensor in self.named(prefix):
            if tensor.grad is None:
                continue
            tensor.data -= lr * tensor.grad
            tensor.grad = None

    def clone(self) -> "SupernetWeights":
        other = SupernetWeights(self.spec)
        for name, tensor in self.tensors.items():
            other._add(name, tensor.data.copy())
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


def _resample(x: Tensor, factors: tuple[int, int]) -> Tensor:
    """``x`` repeated ``up`` times or averaged over ``down`` sites; one factor is 1."""
    up, down = factors
    if up > 1:
        return upsample_repeat(x, up)
    if down > 1:
        return downsample_mean(x, down)
    return x


def _block_core(weights: SupernetWeights, p: int, l: int, m: int, x: Tensor) -> Tensor:
    """Run one operator block (without normalization) on full-width input."""
    h = x
    for dense, w, b, tanh, residual in weights.block_plan(p, l, m):
        skip = adapt_channels(x, w.data.shape[0]) if residual else None
        if dense:
            h = conv1d(h, w, bias=b, tanh=tanh, skip=skip)
        else:
            h = dwconv1d(h, w, bias=b, tanh=tanh, skip=skip)
    return h


# Bytes of stage outputs a ``StageTrail`` keeps beyond the last forward's
# chain.  The channel stage mostly scores one-layer edits of a few elites,
# so a miss often shares a long prefix with a genome scored some calls
# before the last.  512 KiB holds 85 translation stage outputs at batch 64
# (6 KiB each); a full-width mask stage's output is its norm's array, and
# counts once.  Over 8 default searches it ran 1,152 convs, as at 1 MiB,
# against 1,244 at 256 KiB and 2,024 with the last chain only.  It holds
# about 5 super-resolution outputs at 16 sites (96 KiB each).
TRAIL_BUDGET_BYTES = 512 * 1024


class StageTrail:
    """Stage outputs of recent forwards a ``GeneratorView`` ran with it.

    Stage ``i``'s output depends on the keys of stages ``0..i`` together
    (see ``GeneratorView.stage_keys``), so the output stored for a key
    prefix is what a fresh forward with that prefix would recompute.
    ``entries`` maps (the parent entry's number, or 0, and the stage's own
    key) to (the entry's number, its depth in stages, its output array
    without its graph, the bytes it counts).  An output that is its parent
    entry's array (a full-width mask stage) counts 0 bytes, so ``nbytes``
    is the size of the distinct arrays held.  A forward resumes after the
    longest stored prefix of its keys and stores every stage it runs;
    ``keys`` and ``chain`` are its stage keys and the entry keys of its
    stages.  The last forward's chain is never evicted, so the next forward
    takes the prefix its keys share with the last ``keys`` straight from
    ``chain`` and looks up only the stages after it; a forward with the
    last forward's keys, such as one that differs only in the last width,
    finds so in one list comparison and makes no lookup.  ``keeps`` maps
    (path, layer, width) to that layer's channel keep vector at that width
    (see ``GeneratorView._keep``), and ``heads`` maps (path, last width) to
    the head weight masked by the last layer's keep vector, a constant when
    scoring and a graph node inside a step that trains the head (see
    ``GeneratorView._head_weight``).

    Beyond the last forward's chain, the store keeps at most
    ``TRAIL_BUDGET_BYTES`` of outputs, evicting the least recently used
    entry first.  A forward marks its chain used deepest entry first, so
    no entry is evicted before its children and every entry stays
    reachable; a forward that ran no stage and reused the last chain whole
    leaves the order as it is, which is already that order.  The store,
    the keep vectors and the masked head weights start over when the input
    array or the weights object differs, compared by identity.  Weights
    changed in place are not noticed, so a trail is only sound over fixed
    weights, unless a ``cut`` first drops every stage the change affects;
    ``cut`` shortens ``keys`` and ``chain`` to the stages it keeps.
    """

    def __init__(self) -> None:
        self.x: np.ndarray | None = None
        self.weights: SupernetWeights | None = None
        self.keys: list = []
        self.entries: "OrderedDict[tuple, tuple[int, int, np.ndarray, int]]" = OrderedDict()
        self.chain: list[tuple] = []
        self.keeps: dict[tuple[int, int, int], Tensor] = {}
        self.heads: dict[tuple[int, int], Tensor] = {}
        self.nbytes = 0
        self._numbered = 0
        self._reused_last = False

    def resume(self, x: Tensor, weights: SupernetWeights, keys: list) -> tuple[int, Tensor]:
        """(stages reused, the last reused output or ``x``) for a forward with ``keys``.

        When the last chain is whole, one comparison of ``keys`` with the
        last ``keys`` finds a forward that reuses all of it; otherwise the
        keys are walked to the first that differs.  The reused output is a
        constant over the stored array.
        """
        if self.x is not x.data or self.weights is not weights:
            self.x, self.weights = x.data, weights
            self.entries.clear()
            self.keeps.clear()
            self.heads.clear()
            self.nbytes = 0
            self.keys, self.chain = [], []
        chain = self.chain
        self._reused_last = len(chain) == len(self.keys) and keys == self.keys
        if self._reused_last:
            return len(chain), Tensor._make(self.entries[chain[-1]][2], (), None)
        shared = 0
        for new, old, _ in zip(keys, self.keys, chain):
            if new != old:
                break
            shared += 1
        self.keys = keys
        del chain[shared:]
        found = self.entries[chain[-1]] if chain else None
        parent = 0 if found is None else found[0]
        for key in keys[shared:]:
            entry = self.entries.get((parent, key))
            if entry is None:
                break
            chain.append((parent, key))
            found, parent = entry, entry[0]
        return len(chain), x if found is None else Tensor._make(found[2], (), None)

    def store(self, outputs: list[np.ndarray]) -> None:
        """Store the outputs of the stages the resumed forward ran, then evict."""
        if not outputs and self._reused_last:
            return
        entries, chain = self.entries, self.chain
        parent, _, held, _ = entries[chain[-1]] if chain else (0, 0, None, 0)
        for output in outputs:
            key = (parent, self.keys[len(chain)])
            size = 0 if output is held else output.nbytes
            self._numbered = parent = self._numbered + 1
            entries[key] = (parent, len(chain) + 1, output, size)
            chain.append(key)
            self.nbytes += size
            held = output
        for key in reversed(chain):
            entries.move_to_end(key)
        while self.nbytes > TRAIL_BUDGET_BYTES and len(entries) > len(chain):
            self.nbytes -= entries.popitem(last=False)[1][3]

    def cut(self, stages: int) -> None:
        """Forget every entry deeper than ``stages``, every keep vector and
        every masked head weight, so a resumed forward runs the rest."""
        for key in [key for key, entry in self.entries.items() if entry[1] > stages]:
            self.nbytes -= self.entries.pop(key)[3]
        self.keys = self.keys[:stages]
        del self.chain[stages:]
        self.keeps.clear()
        self.heads.clear()


@dataclass
class GeneratorView:
    """A callable sub-generator borrowing supernet weights.

    ``operator_assignment`` of None means the uniform mixture of all
    candidates per layer (the full-supernet form used for path scoring
    and for discriminator updates).  ``channel_widths`` are the active
    output widths per layer; the widest width skips masking entirely.

    A forward runs 3L stages in order, then the head: the stem, then per
    layer ``l`` its block core (the resample into the layer and the
    operator block), its channel norm and, for every layer but the last,
    its channel mask.  The head applies the last layer's mask through its
    weight.  Each stage's own key names the choice it adds: the stem's is
    the path, a core's is ``op_l`` (None for the mixture), a norm's is
    None (it adds no choice) and a mask's is ``width_l``.  A stage's output
    depends on its own key and on the keys of every earlier stage, so
    genomes that differ only in a layer's width share that layer's norm,
    and genomes that differ only in the last layer's width share every
    stage.
    """

    weights: SupernetWeights
    path_index: int
    operator_assignment: tuple[int, ...] | None
    channel_widths: tuple[int, ...]

    def stage_keys(self) -> list:
        """Each stage's own key, in stage order."""
        ops = self.operator_assignment
        keys: list = [self.path_index]
        for l, width in enumerate(self.channel_widths):
            keys += (None if ops is None else ops[l], None, width)
        return keys[:-1]

    def __call__(self, x: Tensor, trail: StageTrail | None = None) -> Tensor:
        """Run the generator on ``x``.

        With a ``trail``, the forward resumes after the longest stage
        prefix the trail stores, and stores the stages it runs there.
        Without one, every stage runs.
        """
        self._check_input(x)
        start, h = (0, x) if trail is None else trail.resume(x, self.weights, self.stage_keys())
        ran = []
        for stage in range(start, 3 * len(self.channel_widths)):
            h = self._stage(stage, h, trail)
            ran.append(h.data)
        if trail is not None:
            trail.store(ran)
        w, bias = self.weights.path_conv(self.path_index, "head")
        return conv1d(h, self._head_weight(w, trail), bias=bias)

    def _check_input(self, x: Tensor) -> None:
        spec = self.weights.spec
        # A shape of any other rank than 3 differs from the pair in length.
        if x.data.shape[1:] != (spec.input_channels, spec.input_sites):
            raise ShapeError(
                f"generator input must be (batch, {spec.input_channels}, {spec.input_sites}), "
                f"got {x.data.shape}"
            )

    def _keep(self, l: int, trail: StageTrail | None = None) -> Tensor | None:
        """Layer ``l``'s 0/1 channel keep vector, shaped (1, C, 1); None at full width.

        A ``trail`` derives each (path, layer, width)'s vector once.
        """
        width = self.channel_widths[l]
        if width == self.weights.spec.max_width:
            return None
        key = (self.path_index, l, width)
        keeps = {} if trail is None else trail.keeps
        keep = keeps.get(key)
        if keep is None:
            gamma = self.weights.gamma(self.path_index, l).data
            keep = keeps[key] = Tensor(active_channel_mask(gamma, width).reshape(1, -1, 1))
        return keep

    def _head_weight(self, w: Tensor, trail: StageTrail | None = None) -> Tensor:
        """The head weight ``w`` with its input channels masked by the last keep vector.

        ``w * keep`` and ``h * keep`` make each product of a dropped
        channel an exact zero, and the conv keeps its shapes and layouts,
        so masking either gives the same values.  A ``trail`` keeps the
        masked weight per (path, last width), and builds it again when the
        weight's ``requires_grad`` has changed since; it is looked up
        before the keep vector is.
        """
        key = (self.path_index, self.channel_widths[-1])
        heads = {} if trail is None else trail.heads
        masked = heads.get(key)
        if masked is not None and masked.requires_grad == w.requires_grad:
            return masked
        keep = self._keep(len(self.channel_widths) - 1, trail)
        if keep is None:
            return w
        masked = heads[key] = w * keep
        return masked

    def _stage(self, stage: int, h: Tensor, trail: StageTrail | None = None) -> Tensor:
        """Stage ``stage`` of the forward applied to the previous stage's output."""
        p = self.path_index
        spec = self.weights.spec
        if stage == 0:
            h = _resample(h, spec.resampling[p][0])
            stem_w, stem_b = self.weights.path_conv(p, "stem")
            return conv1d(h, stem_w, bias=stem_b, tanh=True)
        l, part = divmod(stage - 1, 3)
        if part == 1:
            return channel_rms_norm(h, self.weights.gamma(p, l))
        if part == 2:
            keep = self._keep(l, trail)
            return h if keep is None else h * keep
        if l > 0:
            h = _resample(h, spec.resampling[p][l])
        layer = spec.paths[p].layers[l]
        if self.operator_assignment is None:
            candidates = range(layer.num_operators)
        else:
            candidates = (self.operator_assignment[l],)
        return mixture_mean([_block_core(self.weights, p, l, m, h) for m in candidates])


def stacked_forward(views: Sequence[GeneratorView], x: Tensor) -> Tensor:
    """``concat_rows([view(x) for view in views])``, with one stem and one head.

    The views must share their weights, path and channel widths.  The
    stem reads only the path's weights and ``x``, so its one output feeds
    every view's layers, and the head, with the last mask in its weight,
    runs once over the stacked rows: rows ``m * batch`` to
    ``(m + 1) * batch`` are the output of ``views[m]``.
    """
    first = views[0]
    shared = (first.weights, first.path_index, first.channel_widths)
    if any((v.weights, v.path_index, v.channel_widths) != shared for v in views):
        raise InvariantError("stacked views must share their weights, path and channel widths")
    first._check_input(x)
    stem = first._stage(0, x)
    outputs = []
    for view in views:
        h = stem
        for stage in range(1, 3 * len(first.channel_widths)):
            h = view._stage(stage, h)
        outputs.append(h)
    w, bias = first.weights.path_conv(first.path_index, "head")
    return conv1d(concat_rows(outputs), first._head_weight(w), bias=bias)


def subnet_view(weights: SupernetWeights, genome: ArchitectureGenome) -> GeneratorView:
    """View for one genome: its operators and widths."""
    spec = weights.spec
    require_valid(spec, genome)
    return GeneratorView(
        weights=weights,
        path_index=genome.path_index,
        operator_assignment=genome.operator_assignment,
        channel_widths=tuple(spec.channel_choices[i] for i in genome.channel_assignment),
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
        if disc.pool > 1 and h.data.shape[2] % disc.pool == 0:
            h = downsample_mean(h, disc.pool)
        w2 = self.weights[f"d/{d}/c2/w"]
        b2 = self.weights[f"d/{d}/c2/b"]
        h = conv1d(h, w2, bias=b2, tanh=True)
        return pooled_linear(h, self.weights[f"d/{d}/out/w"], self.weights[f"d/{d}/out/b"])
