"""The README and the CLI docstring document exactly what the code provides."""

import argparse
import pathlib
import re

from cfsearch import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def registered_subcommands() -> set[str]:
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices)


def test_readme_documents_exactly_the_registered_subcommands():
    documented = set(re.findall(r"^(?:\$ )?cfsearch ([a-z][a-z-]*)", README, re.MULTILINE))
    assert documented == registered_subcommands()


def test_cli_docstring_lists_every_subcommand():
    for name in registered_subcommands():
        assert f"``{name}``" in cli.__doc__, name


def test_readme_environment_variables_are_read_by_the_code():
    source = "\n".join(
        path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")
    )
    for name in set(re.findall(r"\bCFSEARCH_[A-Z0-9_]+", README)):
        assert f'"{name}"' in source, name
