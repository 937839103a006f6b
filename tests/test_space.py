"""Search-space enumeration, genome encoding, and specialization counting."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cfsearch import space
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
    spec_from_dict,
    validate_genome,
)
from cfsearch.configs import default_toy_spec

from conftest import build_spec, resampling_spec_dict, super_resolution_spec


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


def test_specialization_count_decides_its_range_before_big_integers(monkeypatch):
    # Refuse M! past M = 20 and a power of it past 2**63, so a count that
    # needed either would fail here instead of taking seconds or memory.
    class Factorial(int):
        def __pow__(self, exponent):
            assert exponent < 64, "a power that leaves the 64-bit range"
            return int(self) ** exponent

    factorial = math.factorial

    def small_factorial(n):
        assert n <= 20, "a factorial past 20!"
        return Factorial(factorial(n))

    monkeypatch.setattr(math, "factorial", small_factorial)
    assert operator_specialization_count(10**6, 1) == 1
    assert operator_specialization_count(1, 10**12) == 1
    assert operator_specialization_count(20, 2) == factorial(20)
    assert operator_specialization_count(2, 63) == 2**62
    for m, l in ((21, 2), (10**6, 2), (2, 64), (2, 10**9), (3, 10**12)):
        with pytest.raises(EnumerationTooLargeError):
            operator_specialization_count(m, l)


def test_enumeration_cap_refuses_large_spaces():
    with pytest.raises(EnumerationTooLargeError):
        enumerate_specializations(3, 9, cap=1000)


def test_a_genome_keeps_the_dataclass_hash_and_replace_takes_a_new_one():
    g = ArchitectureGenome(2, (1, 0, 1), (3, 2, 0))
    same = ArchitectureGenome(2, (1, 0, 1), (3, 2, 0))
    assert same is not g and same == g
    assert hash(same) == hash(g) == hash((2, (1, 0, 1), (3, 2, 0))) == vars(g)["_hash"]
    edited = replace(g, channel_assignment=(0, 2, 0))
    assert edited != g and hash(edited) == hash((2, (1, 0, 1), (0, 2, 0)))
    assert replace(edited, channel_assignment=(3, 2, 0)) in {g}
    assert repr(g) == (
        "ArchitectureGenome(path_index=2, operator_assignment=(1, 0, 1), "
        "channel_assignment=(3, 2, 0))"
    )


def test_require_valid_checks_a_valid_genome_once_per_spec(monkeypatch):
    spec = build_spec(n_paths=1, n_layers=2, n_operators=2, channels=(2, 3))
    checked = []
    check = space.validate_genome
    monkeypatch.setattr(space, "validate_genome", lambda s, g: checked.append(g) or check(s, g))
    good, bad = ArchitectureGenome(0, (0, 1), (1, 0)), ArchitectureGenome(0, (0, 1), (1, 2))
    for _ in range(3):
        require_valid(spec, ArchitectureGenome(0, (0, 1), (1, 0)))
        with pytest.raises(GenomeError):
            require_valid(spec, bad)
    assert checked == [good, bad, bad, bad]
    assert spec.valid_genomes == {good}
    require_valid(build_spec(n_paths=1, n_layers=2, n_operators=2, channels=(2, 3)), good)
    assert checked[-1] == good and len(checked) == 5  # another spec checks it again


def test_genome_record_form():
    g = ArchitectureGenome(2, (1, 0, 1), (3, 2, 0))
    assert g.to_record() == "path:2;ops:1,0,1;ch:3,2,0"


# Every record of two small spaces, one and two layers deep, so that each
# malformed record below is a near miss of a real one.
SMALL_SPACE_RECORDS = {
    g.to_record()
    for n_layers in (1, 2)
    for g in enumerate_genomes(build_spec(n_paths=2, n_layers=n_layers, channels=(2, 3)))
}


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "path:0",
        "path:0;ops:1,0",
        "path:x;ops:0;ch:0;rec:0",
        "path:0;ops:a,b;ch:0;rec:0",
        "nonsense",
        "path:x;ops:0;ch:0",
        "path:0;ops:a,b;ch:0",
        "path:0;ops:1;ch:0;rec:0",
        "path:0;ops:1;ch:0;foo:9",
        "path:0;path:1;ops:1;ch:0",
        "path:0;ops:1;ch:0;ch:1",
    ],
)
def test_malformed_records_name_no_genome(bad):
    assert {"path:0;ops:1;ch:0", "path:0;ops:1,0;ch:0,0", "path:1;ops:0;ch:1"} <= SMALL_SPACE_RECORDS
    assert bad not in SMALL_SPACE_RECORDS


@pytest.mark.parametrize(
    "choices, ok",
    [((1,), True), ((4, 1024), True), ((0, 4), False), ((4, 1025), False)],
)
def test_channel_choices_are_bounded_to_1_through_1024(choices, ok):
    # The widest choice sizes every weight, so an unbounded one could ask for GiBs.
    if ok:
        assert build_spec(channels=choices).channel_choices == choices
    else:
        with pytest.raises(ConfigError, match=r"channel_choices .* ints in \[1, 1024\]"):
            build_spec(channels=choices)


def test_validation_reports_first_violation_in_order():
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3))
    out_of_range = ArchitectureGenome(5, (0, 0), (0, 0))
    assert "path_index" in validate_genome(spec, out_of_range)
    short = ArchitectureGenome(0, (0,), (0, 0))
    assert "operator_assignment length" in validate_genome(spec, short)
    bad_op = ArchitectureGenome(0, (0, 7), (0, 0))
    assert "operator index 7" in validate_genome(spec, bad_op)
    bad_ch = ArchitectureGenome(0, (0, 0), (0, 9))
    assert "channel index 9" in validate_genome(spec, bad_ch)
    assert validate_genome(spec, ArchitectureGenome(0, (0, 0), (0, 0))) is None


def test_require_valid_raises_genome_error():
    spec = build_spec()
    with pytest.raises(GenomeError):
        require_valid(spec, ArchitectureGenome(3, (0, 0), (0, 0)))
    require_valid(spec, ArchitectureGenome(0, (0, 0), (1, 1)))


def test_enumeration_is_complete_sorted_and_distinct():
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3))
    genomes = list(enumerate_genomes(spec))
    assert len(genomes) == genome_space_size(spec)
    keys = [g.sort_key() for g in genomes]
    assert keys == sorted(keys)
    assert len({g.to_record() for g in genomes}) == len(genomes)
    for g in genomes:
        assert validate_genome(spec, g) is None


def test_space_size_manual_product():
    # Per path: M^L operator tuples times K^L channel tuples.
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3))
    per_path = (2**2) * (2**2)
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


_GENOME = st.builds(
    ArchitectureGenome,
    st.integers(0, 12),
    st.lists(st.integers(0, 12), min_size=1, max_size=4).map(tuple),
    st.lists(st.integers(0, 12), min_size=1, max_size=4).map(tuple),
)


@given(_GENOME, _GENOME)
def test_records_name_genomes_one_to_one_property(g, h):
    assert (g.to_record() == h.to_record()) == (g == h)


@given(st.integers(1, 4), st.integers(1, 4))
def test_count_formula_property(m, l):
    assert operator_specialization_count(m, l) == math.factorial(m) ** (l - 1)


GEOMETRY_SPECS = {
    "default": default_toy_spec,
    "super_resolution": super_resolution_spec,
    "resampling": lambda: spec_from_dict(resampling_spec_dict()),
}


@pytest.mark.parametrize("name", list(GEOMETRY_SPECS))
def test_integer_geometry_equals_the_fraction_derived_values(name):
    spec = GEOMETRY_SPECS[name]()
    for p, path in enumerate(spec.paths):
        schedule = path.resolution_schedule
        assert len(spec.layer_sites[p]) == len(spec.resampling[p]) == path.num_layers
        for l, scale in enumerate(schedule):
            sites = spec.sites(p, l)
            assert type(sites) is int and sites == scale * spec.input_sites
            up, down = spec.resampling[p][l]
            assert type(up) is int and type(down) is int and min(up, down) == 1
            assert Fraction(up, down) == scale / (schedule[l - 1] if l else 1)


def test_derived_fields_leave_spec_equality_alone():
    a, b = default_toy_spec(), default_toy_spec()
    a.cost_rows[(0,)] = "filled"
    assert a == b and hash(a) == hash(b)
    assert not b.cost_rows


@pytest.mark.parametrize(
    "scale", ["3/0", float("inf"), float("nan"), "1e999999999", True, None, [1], "x", 0, "-2"]
)
def test_bad_resolution_scale_is_a_config_error_naming_the_key(scale):
    cfg = resampling_spec_dict()
    cfg["paths"][1]["resolution_schedule"] = [scale, 1]
    with pytest.raises(ConfigError, match=r"paths\[1\]\.resolution_schedule: "):
        spec_from_dict(cfg)


_SPEC_KEY = st.sampled_from(
    [
        "paths", "channel_choices", "discriminators", "input_sites", "input_channels",
        "resolution_schedule", "operators", "recursion_choices", "matched_discriminator",
    ]
)
_SPEC_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["conv3x3", "res_block", "1/2", "2", "0", "-1", "1e9", "0.5", "3/0"]),
)
_SPEC_VALUE = st.recursive(
    _SPEC_LEAF,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_SPEC_KEY, inner, max_size=4),
    max_leaves=24,
)


def _parses_or_raises_a_package_error(cfg) -> None:
    try:
        spec = spec_from_dict(cfg)
    except CfSearchError:
        return
    for p, path in enumerate(spec.paths):
        assert all(type(s) is int and s > 0 for s in spec.layer_sites[p])
        assert len(spec.resampling[p]) == path.num_layers


def _key_paths(value, prefix=()):
    """The key path of every value nested inside ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in items:
        yield prefix + (key,)
        if isinstance(inner, (dict, list)):
            yield from _key_paths(inner, prefix + (key,))


@given(st.dictionaries(_SPEC_KEY, _SPEC_VALUE, max_size=6))
def test_spec_parser_raises_only_package_errors(cfg):
    _parses_or_raises_a_package_error(cfg)


@given(st.data())
def test_spec_parser_raises_only_package_errors_for_one_value_replaced(data):
    cfg = json.loads(json.dumps(resampling_spec_dict()))
    *parents, last = data.draw(st.sampled_from(list(_key_paths(cfg))))
    target = cfg
    for key in parents:
        target = target[key]
    target[last] = data.draw(_SPEC_VALUE)
    _parses_or_raises_a_package_error(cfg)
