"""The README and the CLI docstring document exactly what the code provides."""

import argparse
import pathlib
import re
import shlex

import pytest
import yaml

from cfsearch import cli
from cfsearch.configs import CONFIG_KEYS, default_config, default_toy_spec
from cfsearch.pipeline import run_pipeline
from cfsearch.space import enumerate_genomes, spec_from_dict

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def registered_subcommands() -> set[str]:
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices)


def test_readme_documents_exactly_the_registered_subcommands():
    documented = set(re.findall(r"^(?:\$ )?cfsearch ([a-z][a-z-]*)", README, re.MULTILINE))
    assert documented == registered_subcommands()


def test_readme_command_lines_parse():
    parser = cli._build_parser()
    lines = [
        line
        for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("cfsearch ")
    ]
    assert len(lines) >= len(registered_subcommands())
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_cli_docstring_lists_every_subcommand():
    for name in registered_subcommands():
        assert f"``{name}``" in cli.__doc__, name


def test_readme_environment_variables_are_read_by_the_code():
    source = "\n".join(
        path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")
    )
    for name in set(re.findall(r"\bCFSEARCH_[A-Z0-9_]+", README)):
        assert f'"{name}"' in source, name


def readme_config_block() -> dict:
    block = re.search(r"^```yaml\n(.*?)^```", README, re.M | re.S)
    return yaml.safe_load(block.group(1))


def test_readme_config_block_lists_exactly_the_table_keys_and_defaults():
    documented = readme_config_block()
    assert set(documented) == set(default_config())
    # The values shown are the defaults a run uses; the space is abridged.
    flat = {}
    for name, value in documented.items():
        if isinstance(value, dict) and name != "space":
            flat.update({f"{name}.{key}": v for key, v in value.items()})
        elif name != "space":
            flat[name] = value
    assert flat == {key: row.default for key, row in CONFIG_KEYS.items()}


def test_readme_config_block_space_parses():
    spec = spec_from_dict(readme_config_block()["space"])
    assert spec.num_paths >= 1


def test_readme_run_all_sample_is_what_a_default_run_prints():
    sample = re.search(r"^\$ cfsearch run-all --out run/\n(.*?)^```", README, re.M | re.S)
    shown = dict(line.split(": ", 1) for line in sample.group(1).splitlines() if ": " in line)
    result = run_pipeline(default_config())
    assert shown["chosen path"] == str(result.trace.chosen_path)
    assert shown["operators"] == str(result.trace.g_optr)
    assert shown["genome"] == result.genome.to_record()
    assert shown["oracle calls"] == str(result.trace.total_oracle_calls)
    # Fitness may move in the last digits with the numpy build.
    assert float(shown["searched fitness"]) == pytest.approx(result.searched_fitness, rel=1e-9)
    assert float(shown["fine-tuned fitness"]) == pytest.approx(result.final_fitness, rel=1e-9)


def test_readme_lists_exactly_the_acceptance_criteria_the_suite_defines():
    source = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    defined = sorted(int(n) for n in re.findall(r"^def test_criterion_(\d+)_", source, re.M))
    reported = sorted(int(n) for n in re.findall(r"\bcriterion\((\d+),", source))
    listed = [int(n) for n in re.findall(r"^- \*\*Criterion (\d+)\.\*\*", README, re.M)]
    assert defined == reported == listed


def test_readme_genome_records_name_genomes_of_the_default_space():
    records = re.findall(r"\bpath:\d[\w,:;]*", README)
    assert len(records) >= 3
    assert set(records) <= {g.to_record() for g in enumerate_genomes(default_toy_spec())}
