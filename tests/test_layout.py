"""Every public function of the package is either its API or used by it,
relabellings are drawn and judged in one place, and data files are read
in one place.

A function that only the tests call is a reference implementation and
belongs in ``tests/reference.py``.
"""

import ast
from pathlib import Path

import hdtest

SRC = Path(hdtest.__file__).parent


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _names_read(trees) -> set:
    """Every name and attribute read anywhere in the package; imports alone
    do not count."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_public_functions_are_used_or_exported():
    trees = _trees()
    used = _names_read(trees) | set(hdtest.__all__)
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == []


def test_settings_come_from_arguments():
    """No module reads the environment: every setting is an argument."""
    found = [
        f"{module}:{node.lineno}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
    ]
    assert found == []


#: numpy's text readers, which ``harness.read_rows`` stands in for
TEXT_READERS = {"loadtxt", "genfromtxt", "fromstring"}


def test_one_reader_for_data_files():
    """Every data file goes through ``harness.read_rows``, which names the
    line of a bad row."""
    found = [
        f"{module}:{node.lineno}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in TEXT_READERS
    ]
    assert found == []


#: calls that draw relabellings or take a randomization quantile
SAMPLER_AND_RULE = {"permutation", "permuted", "shuffle", "quantile", "percentile"}


def test_one_sampler_and_one_rule():
    """Only ``permutation.py`` draws relabellings or takes quantiles; every
    other module goes through ``plan_masks`` and ``decide``."""
    found = [
        f"{module}:{node.lineno} {node.func.attr}"
        for module, tree in _trees().items()
        if module != "permutation"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SAMPLER_AND_RULE
    ]
    assert found == []
