"""Fair training schedule bookkeeping and its uniform-sampling baseline.

Fairness here is an exact counting property over a training run: after
any whole number of epochs every (path, layer, operator) triple has been
part of the same number of weight updates, and each generator path has
been updated exactly as often as the discriminator it trains against.
``FairnessLedger`` records those counts; the scheduler guarantees the
property by construction because each path cycle walks one permutation
of the operator candidates per layer.

The uniform baseline draws one operator per layer per step instead and
so only balances in expectation.  ``uniform_equal_probability`` gives the
exact probability that t uniform draws over M operators spread evenly:

    g(M, t) = t! / ((t/M)!^M * M^t)   when M divides t, else 0.

It decreases strictly along t = M, 2M, 3M, ... and tends to zero, which
is the quantitative argument for scheduling by permutation instead of by
coin flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import LedgerFormatError
from .space import SupernetSpec
from .util import as_rng

# Largest t for which the exact big-integer form is computed; beyond it
# the caller gets a float from the log-gamma form.
EXACT_PROBABILITY_LIMIT = 500

# Ledger counts and indices are stored as int64.
_FIELD_LIMIT = 2**63


@dataclass
class EpochPlan:
    """One epoch of fair scheduling, fixed up front.

    ``path_order`` is a permutation of the path indices; each path is one
    cycle.  ``operator_orders[p][l]`` is a permutation of the layer's
    operator indices: the m-th sub-network of cycle p uses operator
    ``operator_orders[p][l][m]`` at layer l, so over a full cycle every
    (l, m) pair is visited exactly once.
    """

    path_order: tuple[int, ...]
    operator_orders: dict[int, tuple[tuple[int, ...], ...]]


def plan_epoch(spec: SupernetSpec, rng) -> EpochPlan:
    """Draw a fair epoch plan; deterministic for a given generator state."""
    gen = as_rng(rng)
    path_order = tuple(int(p) for p in gen.permutation(spec.num_paths))
    operator_orders: dict[int, tuple[tuple[int, ...], ...]] = {}
    for p in path_order:
        path = spec.paths[p]
        operator_orders[p] = tuple(
            tuple(int(i) for i in gen.permutation(layer.num_operators))
            for layer in path.layers
        )
    return EpochPlan(path_order=path_order, operator_orders=operator_orders)


@dataclass
class FairnessLedger:
    """Update counters for a supernet training run.

    ``operator_counts[p]`` is an (L_p, M_p) integer array: how many weight
    updates included operator m of layer l on path p.  ``generator_counts``
    and ``discriminator_counts`` are per generator path: the latter counts
    updates applied to the discriminator matched with that path, so the
    fairness identity is simply elementwise equality.  ``trials`` counts
    recorded path cycles.
    """

    operator_counts: list[np.ndarray]
    generator_counts: np.ndarray
    discriminator_counts: np.ndarray
    trials: int = 0

    @staticmethod
    def for_spec(spec: SupernetSpec) -> "FairnessLedger":
        return FairnessLedger(
            operator_counts=[
                np.zeros((path.num_layers, path.num_operators), dtype=np.int64)
                for path in spec.paths
            ],
            generator_counts=np.zeros(spec.num_paths, dtype=np.int64),
            discriminator_counts=np.zeros(spec.num_paths, dtype=np.int64),
        )

    def record_generator_cycle(self, path_index: int) -> None:
        """Count one fair cycle: all (l, m) of the path took part once."""
        self.operator_counts[path_index] += 1
        self.generator_counts[path_index] += 1
        self.trials += 1

    def record_discriminator_update(self, path_index: int) -> None:
        self.discriminator_counts[path_index] += 1

    def record_uniform_step(self, path_index: int, operator_picks: Sequence[int]) -> None:
        """Count one uniform-baseline step: a single operator per layer."""
        counts = self.operator_counts[path_index]
        for l, m in enumerate(operator_picks):
            counts[l, m] += 1
        self.generator_counts[path_index] += 1
        self.discriminator_counts[path_index] += 1
        self.trials += 1

    def violations(self) -> list[str]:
        """Every failed fairness equality, as human-readable strings.

        A fair ledger has one count per path shared by every operator of
        every layer, by the generator and by the matched discriminator;
        that count is the same on every path, and the generator counts
        sum to ``trials``.
        """
        problems: list[str] = []
        for p, counts in enumerate(self.operator_counts):
            g, d = int(self.generator_counts[p]), int(self.discriminator_counts[p])
            if counts.size == 0:
                problems.append(f"path {p}: no operator rows")
            for l, row in enumerate(counts.tolist()):
                if len(set(row)) > 1:
                    problems.append(f"path {p} layer {l}: operator counts {row} unequal")
                if set(row) != {g}:
                    problems.append(
                        f"path {p} layer {l}: operator counts {row} != generator updates {g}"
                    )
            if g != d:
                problems.append(f"path {p}: generator updates {g} != discriminator updates {d}")
        generator = self.generator_counts.tolist()
        if len(set(generator)) > 1:
            problems.append(f"generator updates differ across paths: {generator}")
        if sum(generator) != self.trials:
            problems.append(f"generator updates sum to {sum(generator)}, not trials {self.trials}")
        return problems

    def is_fair(self) -> bool:
        return not self.violations()

    def max_imbalance(self) -> int:
        """Largest spread max-min over any layer's operator counters."""
        worst = 0
        for counts in self.operator_counts:
            if counts.size:
                spread = int((counts.max(axis=1) - counts.min(axis=1)).max())
                worst = max(worst, spread)
        return worst

    def dump(self) -> str:
        """Tabular text form; see ``load`` for the inverse."""
        lines = ["# fairness ledger v1", f"trials {self.trials}"]
        for p, counts in enumerate(self.operator_counts):
            for l in range(counts.shape[0]):
                for m in range(counts.shape[1]):
                    lines.append(f"op {p} {l} {m} {int(counts[l, m])}")
        for p in range(len(self.generator_counts)):
            lines.append(
                f"path {p} {int(self.generator_counts[p])} "
                f"{int(self.discriminator_counts[p])}"
            )
        return "\n".join(lines) + "\n"

    @staticmethod
    def load(text: str) -> "FairnessLedger":
        """Parse ``dump``'s form; a malformed ledger raises ``LedgerFormatError``.

        Every field is an integer in [0, 2**63).  The largest path index
        may not exceed the number of path rows, nor may a path's grid of
        (largest layer + 1) * (largest operator + 1) cells exceed its
        number of op rows, so the arrays built are never larger than the
        text that asked for them.
        """
        trials = 0
        op_rows: dict[tuple[int, int, int], int] = {}
        path_rows: dict[int, tuple[int, int]] = {}
        where: dict[tuple[int, ...], str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                values = [int(v) for v in parts[1:]]
                if any(not 0 <= v < _FIELD_LIMIT for v in values):
                    raise ValueError("field outside [0, 2**63)")
                if parts[0] == "trials" and len(parts) == 2:
                    trials = values[0]
                elif parts[0] == "op" and len(parts) == 5:
                    p, l, m, c = values
                    op_rows[(p, l, m)] = c
                    where[(p, l, m)] = f"ledger line {lineno}: {raw!r}"
                elif parts[0] == "path" and len(parts) == 4:
                    p, g, d = values
                    path_rows[p] = (g, d)
                    where[(p,)] = f"ledger line {lineno}: {raw!r}"
                else:
                    raise ValueError("unrecognized row")
            except (ValueError, IndexError) as exc:
                raise LedgerFormatError(f"ledger line {lineno}: {raw!r}") from exc
        if not path_rows:
            raise LedgerFormatError("ledger has no path rows")
        num_paths = max(path_rows) + 1
        if num_paths > len(path_rows):
            raise LedgerFormatError(
                f"{where[(num_paths - 1,)]}: path index {num_paths - 1} "
                f"but {len(path_rows)} path rows"
            )
        orphans = sorted({p for (p, _l, _m) in op_rows if p >= num_paths})
        if orphans:
            raise LedgerFormatError(f"ledger has op rows for paths {orphans} with no path row")
        operator_counts = []
        for p in range(num_paths):
            keys = [key for key in op_rows if key[0] == p]
            n_layers = max((l for _p, l, _m in keys), default=-1) + 1
            n_ops = max((m for _p, _l, m in keys), default=-1) + 1
            if n_layers * n_ops > len(keys):
                widest = max(keys, key=lambda key: max(key[1], key[2]))
                raise LedgerFormatError(
                    f"{where[widest]}: path {p} needs a {n_layers} x {n_ops} grid "
                    f"but has {len(keys)} op rows"
                )
            grid = np.zeros((n_layers, n_ops), dtype=np.int64)
            for _p, l, m in keys:
                grid[l, m] = op_rows[(p, l, m)]
            operator_counts.append(grid)
        generator_counts = np.zeros(num_paths, dtype=np.int64)
        discriminator_counts = np.zeros(num_paths, dtype=np.int64)
        for p, (g, d) in path_rows.items():
            generator_counts[p] = g
            discriminator_counts[p] = d
        return FairnessLedger(
            operator_counts=operator_counts,
            generator_counts=generator_counts,
            discriminator_counts=discriminator_counts,
            trials=trials,
        )


def record_fair_epoch(ledger: FairnessLedger, plan: EpochPlan) -> None:
    """Apply one planned epoch's counts: each cycle updates its whole grid."""
    for p in plan.path_order:
        ledger.record_generator_cycle(p)
        ledger.record_discriminator_update(p)


def record_uniform_baseline(
    ledger: FairnessLedger, spec: SupernetSpec, steps: int, rng
) -> None:
    """Simulate ``steps`` of the uniform baseline into the ledger.

    Paths are drawn without replacement inside windows of ``num_paths``
    steps (the controlled comparison holds path exposure fixed); within a
    step each layer samples exactly one operator uniformly at random.
    """
    gen = as_rng(rng)
    window: list[int] = []
    for _ in range(steps):
        if not window:
            window = [int(p) for p in gen.permutation(spec.num_paths)]
        p = window.pop(0)
        path = spec.paths[p]
        picks = [int(gen.integers(0, layer.num_operators)) for layer in path.layers]
        ledger.record_uniform_step(p, picks)


def uniform_equal_probability(num_operators: int, trials: int) -> Fraction | float:
    """Probability that ``trials`` uniform draws over M operators balance.

    Returns an exact Fraction up to ``EXACT_PROBABILITY_LIMIT`` trials and
    a float beyond it.  When M does not divide t the count cannot split
    evenly and the result is exactly 0.
    """
    m, t = num_operators, trials
    if m < 1 or t < 1:
        raise ValueError(f"need num_operators >= 1 and trials >= 1, got ({m}, {t})")
    if t % m != 0:
        return Fraction(0)
    if t <= EXACT_PROBABILITY_LIMIT:
        share = t // m
        return Fraction(math.factorial(t), math.factorial(share) ** m * m**t)
    return math.exp(uniform_equal_probability_log(m, t))


def uniform_equal_probability_log(num_operators: int, trials: int) -> float:
    """Natural log of the balanced probability; requires M | t.

    Stable for large t via log-gamma, used to check the strict decrease
    far past the exact regime.
    """
    m, t = num_operators, trials
    if m < 1 or t < 1:
        raise ValueError(f"need num_operators >= 1 and trials >= 1, got ({m}, {t})")
    if t % m != 0:
        raise ValueError(f"balanced probability is zero when {m} does not divide {t}")
    share = t // m
    return math.lgamma(t + 1) - m * math.lgamma(share + 1) - t * math.log(m)
