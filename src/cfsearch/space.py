"""Search-space definition: supernet structure, genomes, and enumeration.

A supernet is a small set of candidate generator topologies ("paths"),
each a fixed-length chain of layers.  Every layer offers M candidate
operator blocks and a shared ladder of channel widths.  A genome pins a
path, one operator and one width per layer, and therefore names one
concrete sub-network.

Counting note: a layerwise *specialization* is an unordered set of M
assignments that are pairwise disjoint within every layer, i.e. per layer
the M assignments together use each candidate operator exactly once.  Two
member lists that differ only by reordering describe the same
specialization.  The number of distinct specializations for M operators
and L layers is (M!)**(L-1).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import ConfigError, EnumerationTooLargeError, GenomeError
from .util import config_number

# Exhaustive enumerations (specializations, operator assignments, the joint
# genome scan) refuse more than this many candidates; the specialization
# enumeration and the joint scan let the caller raise it.
DEFAULT_ENUMERATION_CAP = 1_000_000

# Results of the closed-form count are kept within a signed 64-bit range
# so downstream accounting can treat counts as native integers.
_COUNT_LIMIT = 2**63


@dataclass(frozen=True)
class UnitSpec:
    """One primitive inside an operator block, for cost accounting.

    ``kind`` is "conv" (dense, cross-channel), "dwconv" (channelwise), or
    "residual" (skip addition).  ``src``/``dst`` name the channel widths
    the unit runs between: "in" is the block input width, "out" the block
    output width, "mid" a bottleneck at ceil(out / 2).
    """

    kind: str
    kernel: int = 1
    src: str = "in"
    dst: str = "out"

    def widths(self, c_in: int, c_out: int) -> tuple[int, int]:
        """(src, dst) channel counts inside a block mapping ``c_in`` to ``c_out``."""
        sizes = {"in": c_in, "out": c_out, "mid": -(-c_out // 2)}
        return sizes[self.src], sizes[self.dst]


@dataclass(frozen=True)
class OperatorKind:
    """A candidate block type: a name plus its cost-bearing unit list."""

    name: str
    units: tuple[UnitSpec, ...]


def _conv(kernel: int, src: str, dst: str) -> UnitSpec:
    return UnitSpec(kind="conv", kernel=kernel, src=src, dst=dst)


OPERATOR_REGISTRY: Mapping[str, OperatorKind] = {
    op.name: op
    for op in (
        OperatorKind("conv3x3", (_conv(3, "in", "out"),)),
        OperatorKind(
            "res_block",
            (_conv(3, "in", "out"), _conv(3, "out", "out"), UnitSpec("residual", dst="out")),
        ),
        OperatorKind(
            "dws_block",
            (UnitSpec("dwconv", kernel=3, src="in", dst="in"), _conv(1, "in", "out")),
        ),
        OperatorKind(
            "shrink_res_block",
            (_conv(3, "in", "mid"), _conv(3, "mid", "out"), UnitSpec("residual", dst="out")),
        ),
        OperatorKind(
            "context_res_block",
            (_conv(3, "in", "out"), _conv(1, "out", "out"), UnitSpec("residual", dst="out")),
        ),
    )
}


def operator_kind(name: str) -> OperatorKind:
    try:
        return OPERATOR_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(OPERATOR_REGISTRY))
        raise ConfigError(f"unknown operator kind {name!r}; known kinds: {known}") from None


@dataclass(frozen=True)
class LayerSpec:
    """One searchable layer: its candidate operators."""

    operator_candidates: tuple[OperatorKind, ...]

    def __post_init__(self) -> None:
        if not self.operator_candidates:
            raise ConfigError("layer needs at least one operator candidate")
        names = [op.name for op in self.operator_candidates]
        if len(set(names)) != len(names):
            raise ConfigError(f"layer operator candidates must be distinct, got {names}")

    @property
    def num_operators(self) -> int:
        return len(self.operator_candidates)


@dataclass(frozen=True)
class PathSpec:
    """One candidate generator topology.

    ``resolution_schedule`` holds, per layer, the spatial site count of
    that layer's output relative to the network input (a power of two, so
    stages either keep the extent or scale it by 2**k).  Path ``p`` trains
    against discriminator ``p``, which ``network`` derives from the path's
    sites.
    """

    layers: tuple[LayerSpec, ...]
    resolution_schedule: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigError("a path needs at least one layer")
        if len(self.resolution_schedule) != len(self.layers):
            raise ConfigError(
                "resolution_schedule length "
                f"{len(self.resolution_schedule)} != layer count {len(self.layers)}"
            )
        m = self.layers[0].num_operators
        for i, layer in enumerate(self.layers):
            if layer.num_operators != m:
                raise ConfigError(
                    f"every layer of a path must offer the same operator count; "
                    f"layer 0 has {m}, layer {i} has {layer.num_operators}"
                )
        for i, scale in enumerate(self.resolution_schedule):
            if not _is_power_of_two_fraction(scale):
                raise ConfigError(
                    f"resolution scale at layer {i} must be a power of two, got {scale}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_operators(self) -> int:
        return self.layers[0].num_operators


def _is_power_of_two_fraction(x: Fraction) -> bool:
    if x <= 0:
        return False
    num, den = x.numerator, x.denominator
    return (num == 1 or (num & (num - 1)) == 0) and (den == 1 or (den & (den - 1)) == 0)


@dataclass(frozen=True)
class SupernetSpec:
    """The whole search space: paths, channel ladder, input shape.

    Four fields are derived and left out of comparisons.
    ``layer_sites[p][l]`` is the site count of layer ``l``'s output on path
    ``p``.  ``resampling[p][l]`` is the (up, down) factor pair, one of them
    1, that takes the previous layer's extent (the input's, for ``l`` = 0)
    to it.  ``cost_rows`` is the table of per-layer (params, flops) pairs
    that ``costs.genome_cost`` fills on first use, and ``valid_genomes`` the
    genomes ``require_valid`` has passed, so both live as long as the spec.
    """

    paths: tuple[PathSpec, ...]
    channel_choices: tuple[int, ...]
    input_channels: int = 1
    input_sites: int = 1
    layer_sites: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    resampling: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    cost_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    valid_genomes: set = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.paths:
            raise ConfigError("spec needs at least one path")
        if not self.channel_choices:
            raise ConfigError("spec needs at least one channel choice")
        chans = list(self.channel_choices)
        # The widest choice sizes every weight and activation.
        if chans != sorted(set(chans)) or any(not 1 <= c <= 1024 for c in chans):
            raise ConfigError(
                f"channel_choices must be strictly increasing ints in [1, 1024], got {chans}"
            )
        if self.input_channels < 1 or self.input_sites < 1:
            raise ConfigError("input_channels and input_sites must be positive")
        for p, path in enumerate(self.paths):
            for scale in path.resolution_schedule:
                if (scale * self.input_sites).denominator != 1:
                    raise ConfigError(
                        f"path {p}: scale {scale} does not divide input_sites "
                        f"{self.input_sites} into whole sites"
                    )
        sites, resampling = [], []
        for path in self.paths:
            schedule = path.resolution_schedule
            ratios = [now / before for before, now in zip((Fraction(1),) + schedule, schedule)]
            sites.append(tuple(int(scale * self.input_sites) for scale in schedule))
            resampling.append(tuple((r.numerator, r.denominator) for r in ratios))
        object.__setattr__(self, "layer_sites", tuple(sites))
        object.__setattr__(self, "resampling", tuple(resampling))

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @property
    def num_channel_choices(self) -> int:
        return len(self.channel_choices)

    @property
    def max_width(self) -> int:
        return self.channel_choices[-1]

    def sites(self, path_index: int, layer: int) -> int:
        """Spatial site count of a layer's output."""
        return self.layer_sites[path_index][layer]


@dataclass(frozen=True)
class ArchitectureGenome:
    """One point of the search space, stored as index tuples.

    The hash is the one a frozen dataclass computes, taken once when the
    genome is built (by ``replace`` too), so a cache probe rehashes no tuple.
    """

    path_index: int
    operator_assignment: tuple[int, ...]
    channel_assignment: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = (self.path_index, self.operator_assignment, self.channel_assignment)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    @property
    def recursion_assignment(self) -> tuple[int, ...]:
        """All zeros, one per layer.

        Its only reader is ``perfbench/harness.py`` line 241, in ``RunAll.setup``.
        """
        return tuple(0 for _ in self.operator_assignment)

    def sort_key(self) -> tuple:
        """Canonical ordering used for every lexicographic tie-break."""
        return (self.path_index, self.operator_assignment, self.channel_assignment)

    def to_record(self) -> str:
        """Serialize as ``path:<i>;ops:<i,..>;ch:<i,..>``; the program never parses it back."""
        return (
            f"path:{self.path_index}"
            f";ops:{','.join(str(i) for i in self.operator_assignment)}"
            f";ch:{','.join(str(i) for i in self.channel_assignment)}"
        )


def validate_genome(spec: SupernetSpec, genome: ArchitectureGenome) -> str | None:
    """The first constraint ``genome`` violates in ``spec``, or None if it is valid.

    Checks run in a fixed documented order: path index range, assignment
    lengths, operator index ranges, channel index ranges.
    """
    if not 0 <= genome.path_index < spec.num_paths:
        return f"path_index {genome.path_index} outside [0, {spec.num_paths})"
    path = spec.paths[genome.path_index]
    length = path.num_layers
    for name, assignment in (
        ("operator_assignment", genome.operator_assignment),
        ("channel_assignment", genome.channel_assignment),
    ):
        if len(assignment) != length:
            return f"{name} length {len(assignment)} != layer count {length}"
    layers = path.layers
    for l, idx in enumerate(genome.operator_assignment):
        n = len(layers[l].operator_candidates)
        if not 0 <= idx < n:
            return f"operator index {idx} at layer {l} outside [0, {n})"
    n = len(spec.channel_choices)
    for l, idx in enumerate(genome.channel_assignment):
        if not 0 <= idx < n:
            return f"channel index {idx} at layer {l} outside [0, {n})"
    return None


def require_valid(spec: SupernetSpec, genome: ArchitectureGenome) -> None:
    """Raise ``GenomeError`` unless ``genome`` is valid in ``spec``.

    A genome that passes joins ``spec.valid_genomes``, so ``validate_genome``
    checks each valid genome once per spec; an invalid one is checked, and
    raises, on every call.
    """
    if genome in spec.valid_genomes:
        return
    reason = validate_genome(spec, genome)
    if reason is not None:
        raise GenomeError(reason)
    spec.valid_genomes.add(genome)


def operator_specialization_count(num_operators: int, num_layers: int) -> int:
    """Closed-form count of layerwise specializations: (M!)**(L-1).

    Raises if arguments are non-positive or the result would leave the
    signed 64-bit range the call-count bookkeeping assumes, which is
    decided before any big integer is computed.
    """
    if num_operators < 1 or num_layers < 1:
        raise ConfigError(
            f"need num_operators >= 1 and num_layers >= 1, "
            f"got ({num_operators}, {num_layers})"
        )
    if num_operators == 1 or num_layers == 1:
        return 1
    # Here M! >= 2, so the count is out of range for L > 63, and 21! > 2**63.
    count = _COUNT_LIMIT
    if num_operators <= 20 and num_layers <= 63:
        count = math.factorial(num_operators) ** (num_layers - 1)
    if count >= _COUNT_LIMIT:
        raise EnumerationTooLargeError(
            f"specialization count (M={num_operators}, L={num_layers}) exceeds "
            f"the 64-bit bookkeeping range; reduce M or L"
        )
    return count


def enumerate_specializations(
    num_operators: int,
    num_layers: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[tuple[tuple[int, ...], ...]]:
    """All distinct specializations, each as a sorted tuple of M assignments.

    A specialization is represented canonically: its member assignments
    (length-L operator index tuples) sorted lexicographically, and the
    returned list is itself in lexicographic order of those
    representations.  Construction fixes the first layer to the identity
    permutation, which selects exactly one representative per equivalence
    class; remaining layers range over all permutations.

    The brute-force search space this stands in for has (M!)**L ordered
    tuples; when that exceeds ``cap`` the call refuses.
    """
    if num_operators < 1 or num_layers < 1:
        raise ConfigError(
            f"need num_operators >= 1 and num_layers >= 1, "
            f"got ({num_operators}, {num_layers})"
        )
    space = math.factorial(num_operators) ** num_layers
    if space > cap:
        raise EnumerationTooLargeError(
            f"specialization space (M!)**L = {space} exceeds cap {cap}; "
            f"use a smaller (M, L)"
        )
    first = tuple(range(num_operators))
    perms = list(itertools.permutations(range(num_operators)))
    out: list[tuple[tuple[int, ...], ...]] = []
    for rest in itertools.product(perms, repeat=num_layers - 1):
        columns = (first,) + rest
        members = tuple(
            tuple(columns[l][i] for l in range(num_layers)) for i in range(num_operators)
        )
        out.append(tuple(sorted(members)))
    out.sort()
    return out


def enumerate_genomes(spec: SupernetSpec) -> Iterator[ArchitectureGenome]:
    """Every valid genome, in canonical lexicographic order."""
    for p, path in enumerate(spec.paths):
        length = path.num_layers
        op_ranges = [range(layer.num_operators) for layer in path.layers]
        ch_range = range(spec.num_channel_choices)
        for ops in itertools.product(*op_ranges):
            for ch in itertools.product(ch_range, repeat=length):
                yield ArchitectureGenome(p, ops, ch)


def genome_space_size(spec: SupernetSpec) -> int:
    total = 0
    for path in spec.paths:
        size = 1
        for layer in path.layers:
            size *= layer.num_operators * spec.num_channel_choices
        total += size
    return total


def maximal_genome(spec: SupernetSpec, path_index: int) -> ArchitectureGenome:
    """Widest genome of a path with operator assignment all-zero."""
    length = spec.paths[path_index].num_layers
    return ArchitectureGenome(
        path_index,
        tuple(0 for _ in range(length)),
        tuple(spec.num_channel_choices - 1 for _ in range(length)),
    )


def minimal_genome(spec: SupernetSpec, path_index: int) -> ArchitectureGenome:
    """Narrowest genome of a path with operator assignment all-zero."""
    zeros = tuple(0 for _ in range(spec.paths[path_index].num_layers))
    return ArchitectureGenome(path_index, zeros, zeros)


# -- configuration loading ---------------------------------------------------


# A scale written as text: an integer, a ratio of integers or a decimal.
# Exponents are refused, so that no text can ask for a huge power of ten.
_SCALE_TEXT = re.compile(r"\s*[+-]?(\d+(/\d+)?|\d*\.\d+)\s*")


def _parse_scale(raw, key: str) -> Fraction:
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    if not (number or isinstance(raw, str) and _SCALE_TEXT.fullmatch(raw)):
        raise ConfigError(f"{key}: bad resolution scale {raw!r}")
    try:
        scale = Fraction(raw)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"{key}: bad resolution scale {raw!r}") from exc
    if scale <= 0:
        raise ConfigError(f"{key}: resolution scale {raw!r} is not positive")
    return scale


def _entries(value, key: str) -> Sequence:
    """``value`` if it is a list, else a ``ConfigError`` naming ``key``."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _section(value, key: str, known: tuple[str, ...]) -> Mapping:
    """``value`` if it is a mapping of ``known`` keys only, else a ``ConfigError``.

    The error names ``key``, or the unknown key under it.
    """
    if not isinstance(value, Mapping):
        raise ConfigError(f"{key} must be a mapping, got {value!r}")
    for name in value:
        if name not in known:
            raise ConfigError(f"unknown space key {key + '.' if key else ''}{name}")
    return value


def _schedule(raw: Mapping, key: str) -> tuple[Fraction, ...]:
    key = f"{key}.resolution_schedule"
    return tuple(_parse_scale(s, key) for s in _entries(raw["resolution_schedule"], key))


_SPACE_KEYS = ("input_channels", "input_sites", "channel_choices", "paths")
_PATH_KEYS = ("resolution_schedule", "operators")


def spec_from_dict(cfg: Mapping) -> SupernetSpec:
    """Build a SupernetSpec from a parsed configuration mapping.

    Schema (see README for the full document)::

        input_channels: 2
        input_sites: 1
        channel_choices: [4, 6, 8]
        paths:
          - resolution_schedule: [1, 1]
            operators: [[conv3x3, res_block], [conv3x3, res_block]]

    A malformed value or an unknown key raises ``ConfigError`` naming it,
    such as ``paths[0].operators``.
    """
    if not isinstance(cfg, Mapping):
        raise ConfigError("spec section must be a mapping")
    _section(cfg, "", _SPACE_KEYS)
    for key in ("paths", "channel_choices"):
        if key not in cfg:
            raise ConfigError(f"spec section missing required key {key!r}")

    paths = []
    for p, raw_path in enumerate(_entries(cfg["paths"], "paths")):
        where = f"paths[{p}]"
        _section(raw_path, where, _PATH_KEYS)
        if "operators" not in raw_path or "resolution_schedule" not in raw_path:
            raise ConfigError(
                f"path {p} needs 'operators' and 'resolution_schedule' entries"
            )
        op_rows = _entries(raw_path["operators"], f"{where}.operators")
        schedule = _schedule(raw_path, where)
        layers = []
        for l, row in enumerate(op_rows):
            names = _entries(row, f"{where}.operators[{l}]")
            if not all(isinstance(name, str) for name in names):
                raise ConfigError(f"{where}.operators[{l}] must name operators, got {row!r}")
            layers.append(LayerSpec(tuple(operator_kind(name) for name in names)))
        paths.append(PathSpec(layers=tuple(layers), resolution_schedule=schedule))

    return SupernetSpec(
        paths=tuple(paths),
        channel_choices=tuple(
            config_number(c, int, "channel_choices")
            for c in _entries(cfg["channel_choices"], "channel_choices")
        ),
        input_channels=config_number(cfg.get("input_channels", 1), int, "input_channels"),
        input_sites=config_number(cfg.get("input_sites", 1), int, "input_sites"),
    )
