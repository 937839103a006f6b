"""Search-space enumeration, genome encoding, and specialization counting."""

import math

import pytest
from hypothesis import given, strategies as st

from cfsearch.errors import CfSearchError, ConfigError, EnumerationTooLargeError, GenomeError
from cfsearch.space import (
    ArchitectureGenome,
    enumerate_genomes,
    enumerate_specializations,
    genome_space_size,
    maximal_genome,
    minimal_genome,
    operator_specialization_count,
    require_valid,
    sample_specializations,
    validate_genome,
)
from cfsearch.configs import default_toy_spec

from conftest import build_spec

import numpy as np


def test_specialization_count_frozen_values():
    assert operator_specialization_count(2, 2) == 2
    assert operator_specialization_count(3, 2) == 6
    assert operator_specialization_count(3, 3) == 36
    assert operator_specialization_count(3, 4) == 216


def test_specialization_count_single_layer_or_operator():
    # L = 1 leaves nothing to permute; M = 1 has one assignment per layer.
    for m in range(1, 5):
        assert operator_specialization_count(m, 1) == 1
    for l in range(1, 5):
        assert operator_specialization_count(1, l) == 1


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_specialization_count_matches_enumeration(m, l):
    groups = enumerate_specializations(m, l)
    assert len(groups) == operator_specialization_count(m, l)
    assert len(set(groups)) == len(groups)


@pytest.mark.parametrize("m,l", [(2, 3), (3, 2), (3, 3)])
def test_specializations_cover_each_operator_once_per_layer(m, l):
    for group in enumerate_specializations(m, l):
        assert len(group) == m
        for layer in range(l):
            column = sorted(member[layer] for member in group)
            assert column == list(range(m))


def test_specializations_are_canonical_and_sorted():
    groups = enumerate_specializations(3, 2)
    assert groups == sorted(groups)
    for group in groups:
        assert list(group) == sorted(group)
        # Sorted members of a per-layer permutation bundle start 0, 1, .., M-1
        # in their first coordinate.
        assert [member[0] for member in group] == [0, 1, 2]


def test_specializations_partition_only_for_two_operators():
    # With M = 2 the M * N_o member slots tile the assignment space exactly;
    # with M >= 3 assignments repeat across specializations.
    two = enumerate_specializations(2, 2)
    members = [m for g in two for m in g]
    assert len(members) == len(set(members)) == 2**2
    three = enumerate_specializations(3, 2)
    members = [m for g in three for m in g]
    assert len(members) == 18
    assert len(set(members)) == 9  # only 3^2 distinct assignments exist


def test_specialization_count_overflow_guard():
    with pytest.raises(EnumerationTooLargeError):
        operator_specialization_count(20, 30)
    with pytest.raises(ConfigError):
        operator_specialization_count(0, 3)
    with pytest.raises(ConfigError):
        operator_specialization_count(2, 0)


def test_enumeration_cap_refuses_large_spaces():
    with pytest.raises(EnumerationTooLargeError):
        enumerate_specializations(3, 9, cap=1000)


def test_sampled_specializations_subset_of_enumeration():
    rng = np.random.default_rng(5)
    full = set(enumerate_specializations(3, 3))
    sampled = sample_specializations(3, 3, 10, rng)
    assert len(sampled) == 10
    assert len(set(sampled)) == 10
    assert set(sampled) <= full


def test_sampled_specializations_deterministic_and_capped():
    a = sample_specializations(3, 2, 4, np.random.default_rng(9))
    b = sample_specializations(3, 2, 4, np.random.default_rng(9))
    assert a == b
    # Asking for more than exist returns them all.
    everything = sample_specializations(2, 2, 99, np.random.default_rng(0))
    assert sorted(everything) == enumerate_specializations(2, 2)


def test_genome_record_round_trip():
    g = ArchitectureGenome(2, (1, 0, 1), (3, 2, 0), (0, 1, 0))
    assert g.to_record() == "path:2;ops:1,0,1;ch:3,2,0;rec:0,1,0"
    assert ArchitectureGenome.from_record(g.to_record()) == g


def test_genome_defaults_recursion_to_zero():
    g = ArchitectureGenome(0, (1, 1), (0, 2))
    assert g.recursion_assignment == (0, 0)
    h = ArchitectureGenome(0, (1, 1), (0, 2), None)
    assert h == g


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "path:0",
        "path:0;ops:1,0",
        "path:0;ops:1;ch:0",
        "path:x;ops:0;ch:0;rec:0",
        "path:0;ops:a,b;ch:0;rec:0",
        "nonsense",
    ],
)
def test_malformed_records_raise(bad):
    with pytest.raises(GenomeError):
        ArchitectureGenome.from_record(bad)


def test_validation_reports_first_violation_in_order():
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3))
    out_of_range = ArchitectureGenome(5, (0, 0), (0, 0), (0, 0))
    assert "path_index" in validate_genome(spec, out_of_range).reason
    short = ArchitectureGenome(0, (0,), (0, 0), (0, 0))
    assert "operator_assignment length" in validate_genome(spec, short).reason
    bad_op = ArchitectureGenome(0, (0, 7), (0, 0), (0, 0))
    assert "operator index 7" in validate_genome(spec, bad_op).reason
    bad_ch = ArchitectureGenome(0, (0, 0), (0, 9), (0, 0))
    assert "channel index 9" in validate_genome(spec, bad_ch).reason
    bad_rec = ArchitectureGenome(0, (0, 0), (0, 0), (0, 3))
    assert "recursion index 3" in validate_genome(spec, bad_rec).reason
    ok = ArchitectureGenome(0, (0, 0), (0, 0), (0, 0))
    verdict = validate_genome(spec, ok)
    assert verdict.ok and verdict.reason is None


def test_require_valid_raises_genome_error():
    spec = build_spec()
    with pytest.raises(GenomeError):
        require_valid(spec, ArchitectureGenome(3, (0, 0), (0, 0)))
    require_valid(spec, ArchitectureGenome(0, (0, 0), (1, 1)))


def test_enumeration_is_complete_sorted_and_distinct():
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3), recursions=(1, 2))
    genomes = list(enumerate_genomes(spec))
    assert len(genomes) == genome_space_size(spec)
    keys = [g.sort_key() for g in genomes]
    assert keys == sorted(keys)
    assert len({g.to_record() for g in genomes}) == len(genomes)
    for g in genomes:
        assert validate_genome(spec, g).ok


def test_space_size_manual_product():
    # Per path: M^L operator tuples, K^L channel tuples, R^L recursion tuples.
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3), recursions=(1, 2))
    per_path = (2**2) * (2**2) * (2**2)
    assert genome_space_size(spec) == 2 * per_path


def test_default_spec_space_size():
    spec = default_toy_spec()
    assert genome_space_size(spec) == len(list(enumerate_genomes(spec)))


def test_extreme_genomes_are_valid():
    spec = build_spec(n_paths=2, n_layers=3, n_operators=2, channels=(2, 3, 4))
    for p in range(spec.num_paths):
        top = maximal_genome(spec, p)
        require_valid(spec, top)
        assert top.channel_assignment == (2, 2, 2)
        assert top.operator_assignment == (0, 0, 0)
        bottom = minimal_genome(spec, p)
        require_valid(spec, bottom)
        assert bottom.channel_assignment == (0, 0, 0)


@given(
    path=st.integers(0, 4),
    ops=st.lists(st.integers(0, 9), min_size=1, max_size=6),
    ch=st.lists(st.integers(0, 9), min_size=1, max_size=6),
    rec=st.lists(st.integers(0, 9), min_size=1, max_size=6),
)
def test_record_round_trip_property(path, ops, ch, rec):
    g = ArchitectureGenome(path, tuple(ops), tuple(ch), tuple(rec))
    assert ArchitectureGenome.from_record(g.to_record()) == g


@given(st.integers(1, 4), st.integers(1, 4))
def test_count_formula_property(m, l):
    assert operator_specialization_count(m, l) == math.factorial(m) ** (l - 1)


_RECORD_FIELD = st.builds(
    "{}:{}".format,
    st.sampled_from(["path", "ops", "ch", "rec", "x"]),
    st.one_of(
        st.text(max_size=8),
        st.lists(st.integers(-3, 10**30).map(str), max_size=4).map(",".join),
    ),
)


@given(st.one_of(st.text(), st.lists(_RECORD_FIELD, max_size=6).map(";".join)))
def test_genome_record_parser_raises_only_package_errors(record):
    try:
        genome = ArchitectureGenome.from_record(record)
    except CfSearchError:
        return
    assert ArchitectureGenome.from_record(genome.to_record()) == genome
