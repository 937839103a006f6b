"""Update-count bookkeeping and the balanced-sampling probability."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfsearch.errors import CfSearchError, LedgerFormatError
from cfsearch.fairness import (
    EXACT_PROBABILITY_LIMIT,
    FairnessLedger,
    plan_epoch,
    record_fair_epoch,
    record_uniform_baseline,
    uniform_equal_probability,
    uniform_equal_probability_log,
)

from conftest import build_spec


def balanced_probability_by_enumeration(m: int, t: int) -> Fraction:
    """Walk all m**t draw sequences and count the balanced ones."""
    balanced = 0
    for seq in itertools.product(range(m), repeat=t):
        counts = [seq.count(op) for op in range(m)]
        if len(set(counts)) == 1:
            balanced += 1
    return Fraction(balanced, m**t)


def test_fair_epochs_keep_counts_equal():
    spec = build_spec(n_paths=3, n_layers=2, n_operators=3)
    ledger = FairnessLedger.for_spec(spec)
    rng = np.random.default_rng(11)
    for _ in range(5):
        record_fair_epoch(ledger, plan_epoch(spec, rng))
    assert ledger.is_fair()
    assert ledger.max_imbalance() == 0
    for counts in ledger.operator_counts:
        assert np.all(counts == 5)
    assert np.all(ledger.generator_counts == 5)
    assert np.all(ledger.discriminator_counts == 5)


def test_epoch_plan_is_a_permutation_schedule():
    spec = build_spec(n_paths=2, n_layers=3, n_operators=3)
    plan = plan_epoch(spec, np.random.default_rng(3))
    assert sorted(plan.path_order) == [0, 1]
    for p in plan.path_order:
        for layer_order in plan.operator_orders[p]:
            assert sorted(layer_order) == [0, 1, 2]


def test_uniform_baseline_goes_unfair():
    spec = build_spec(n_paths=1, n_layers=2, n_operators=3)
    ledger = FairnessLedger.for_spec(spec)
    record_uniform_baseline(ledger, spec, steps=31, rng=np.random.default_rng(0))
    # 31 single-operator steps over 3 operators cannot balance every layer.
    assert not ledger.is_fair()
    assert ledger.max_imbalance() > 0
    assert ledger.operator_counts[0].sum() == 31 * 2


def test_violation_messages_name_the_site():
    spec = build_spec(n_paths=2, n_layers=1, n_operators=2)
    ledger = FairnessLedger.for_spec(spec)
    ledger.record_generator_cycle(0)
    problems = ledger.violations()
    assert any("path 0" in msg and "generator" in msg for msg in problems)
    ledger.operator_counts[1][0, 0] = 4
    assert any("path 1 layer 0" in msg for msg in ledger.violations())


def test_path_counts_must_agree_with_each_other_and_trials():
    spec = build_spec(n_paths=2, n_layers=1, n_operators=2)
    ledger = FairnessLedger.for_spec(spec)
    record_fair_epoch(ledger, plan_epoch(spec, np.random.default_rng(0)))
    assert ledger.is_fair()
    ledger.operator_counts[1] += 1
    ledger.generator_counts[1] += 1
    ledger.discriminator_counts[1] += 1
    problems = ledger.violations()
    assert "generator updates differ across paths: [1, 2]" in problems
    assert "generator updates sum to 3, not trials 2" in problems


def test_ledger_load_rejects_orphan_operator_rows():
    with pytest.raises(LedgerFormatError, match="paths \\[1\\]"):
        FairnessLedger.load("trials 1\nop 0 0 0 1\nop 1 0 0 1\npath 0 1 1\n")


def test_ledger_dump_load_round_trip():
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2)
    ledger = FairnessLedger.for_spec(spec)
    rng = np.random.default_rng(1)
    for _ in range(3):
        record_fair_epoch(ledger, plan_epoch(spec, rng))
    text = ledger.dump()
    restored = FairnessLedger.load(text)
    assert restored.trials == ledger.trials
    assert all(
        np.array_equal(a, b)
        for a, b in zip(restored.operator_counts, ledger.operator_counts)
    )
    assert np.array_equal(restored.generator_counts, ledger.generator_counts)
    assert np.array_equal(restored.discriminator_counts, ledger.discriminator_counts)
    assert restored.dump() == text


def test_ledger_load_rejects_garbage():
    with pytest.raises(LedgerFormatError):
        FairnessLedger.load("not a ledger\n")
    with pytest.raises(LedgerFormatError):
        FairnessLedger.load("# fairness ledger v1\ntrials 2\nop 0 0 zero 3\n")


def test_balanced_probability_frozen_values():
    assert uniform_equal_probability(2, 2) == Fraction(1, 2)
    assert uniform_equal_probability(2, 4) == Fraction(3, 8)
    assert uniform_equal_probability(2, 6) == Fraction(5, 16)


def test_balanced_probability_zero_off_multiples():
    assert uniform_equal_probability(2, 3) == 0
    assert uniform_equal_probability(3, 4) == 0
    assert uniform_equal_probability(4, 6) == 0


@pytest.mark.parametrize("m,t", [(2, 2), (2, 4), (2, 6), (3, 3), (3, 6), (4, 4)])
def test_balanced_probability_matches_enumeration(m, t):
    assert uniform_equal_probability(m, t) == balanced_probability_by_enumeration(m, t)


def test_balanced_probability_single_operator():
    assert uniform_equal_probability(1, 5) == 1


def test_exact_regime_uses_rationals():
    exact = uniform_equal_probability(2, EXACT_PROBABILITY_LIMIT)
    assert isinstance(exact, Fraction)
    beyond = uniform_equal_probability(2, EXACT_PROBABILITY_LIMIT + 2)
    assert isinstance(beyond, float)
    # The two regimes agree where they meet.
    assert float(exact) == pytest.approx(
        np.exp(uniform_equal_probability_log(2, EXACT_PROBABILITY_LIMIT)), rel=1e-12
    )


def test_log_probability_strictly_decreasing():
    values = [uniform_equal_probability_log(2, t) for t in range(2, 2002, 2)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_log_probability_requires_divisibility():
    with pytest.raises(ValueError):
        uniform_equal_probability_log(2, 5)
    with pytest.raises(ValueError):
        uniform_equal_probability(0, 2)


def test_monte_carlo_agrees_with_exact():
    m, t, trials = 2, 4, 100_000
    rng = np.random.default_rng(77)
    draws = rng.integers(0, m, size=(trials, t))
    ones = (draws == 1).sum(axis=1)
    hits = int((ones == t // m).sum())
    p_hat = hits / trials
    p = float(uniform_equal_probability(m, t))
    sigma = np.sqrt(p * (1 - p) / trials)
    assert abs(p_hat - p) < 3 * sigma


# Ledger-shaped rows with small, negative and int64-overflowing fields, plus junk.
_INDEX = st.integers(-2, 5)
_COUNT = st.one_of(st.integers(-2, 5), st.sampled_from([2**63 - 1, 2**63, 10**23]))
_LEDGER_ROW = st.one_of(
    st.builds("trials {}".format, _COUNT),
    st.builds("op {} {} {} {}".format, _INDEX, _INDEX, _INDEX, _COUNT),
    st.builds("path {} {} {}".format, _INDEX, _COUNT, _COUNT),
    st.text(max_size=12),
)


@given(st.one_of(st.text(), st.lists(_LEDGER_ROW, max_size=10).map("\n".join)))
def test_ledger_load_raises_only_package_errors(text):
    try:
        ledger = FairnessLedger.load(text)
    except CfSearchError:
        return
    ledger.violations()
    assert FairnessLedger.load(ledger.dump()).dump() == ledger.dump()
