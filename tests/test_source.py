"""`src/` holds only what the program runs.

Every module-level function and class in ``src/cfsearch``, and every method
and property of such a class but the dunders, must be referenced somewhere
other than its own definition, in ``src/`` or in ``perfbench/``; a name only
tests use belongs under ``tests/``.  References are read from
the syntax tree with docstrings removed, so a name a docstring mentions
does not count.  A name, an attribute and a string constant all count,
since the benchmark's tracer wraps functions by their names as strings.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cfsearch"

# Kept with no caller in the program, one reason each.
ALLOWED_UNREFERENCED = {
    # The verification oracles the README documents: tabular landscapes with
    # exhaustively known optima.
    "TabularOracle",
    "shipped_landscape",
    # Criterion 3's brute force over every operator specialization.
    "enumerate_specializations",
}


def parse_without_docstrings(path: Path) -> ast.Module:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            node.body = body[1:] or [ast.Pass()]
    return tree


def references(tree: ast.AST) -> Counter:
    """How often each identifier is used as a name, an attribute or a string."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found[node.value] += 1
    return found


def package_trees_and_references() -> tuple[list[ast.Module], Counter]:
    """The syntax trees of ``src/cfsearch``, and the references in it and ``perfbench/``."""
    total: Counter = Counter()
    trees = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = parse_without_docstrings(path)
        total.update(references(tree))
        if path.parent == PACKAGE:
            trees.append(tree)
    return trees, total


def test_every_module_level_function_and_class_in_src_has_a_caller():
    trees, total = package_trees_and_references()
    unreferenced = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if total[node.name] == references(node)[node.name]:
                    unreferenced.add(node.name)
    assert not unreferenced - ALLOWED_UNREFERENCED, "defined in src/ but used only by tests"
    # An entry that gained a caller, or was deleted, leaves the list.
    assert ALLOWED_UNREFERENCED <= unreferenced


def test_every_method_and_property_of_a_class_in_src_has_a_caller():
    # Dunders are called by Python itself.  A name counts wherever it is
    # used, so a method shares its references with any attribute of its name.
    trees, total = package_trees_and_references()
    unreferenced = set()
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if total[node.name] == references(node)[node.name]:
                    unreferenced.add(f"{cls.name}.{node.name}")
    assert not unreferenced, "defined in src/ but used only by tests"


def test_the_package_binds_only_its_version():
    tree = parse_without_docstrings(PACKAGE / "__init__.py")
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            bound += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif not isinstance(node, ast.Pass):
            bound.append(ast.dump(node)[:60])
    assert bound == ["__version__"]
