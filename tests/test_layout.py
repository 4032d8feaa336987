"""Every public function of the package is either its API or used by it,
relabellings are drawn and judged in one place, data files are read in
one place, and scipy is used for the l1 distances only. Every package name
the benchmark binds resolves, and its per-layer metrics time public functions.

A function that only the tests call is a reference implementation and
belongs in ``tests/reference.py``.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import hdtest

SRC = Path(hdtest.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_one_name_per_function():
    """No module binds a function it defines under a second name; a caller
    that needs another name binds it in its own import, with its reason."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "hdtest" if path.stem == "__init__" else f"hdtest.{path.stem}")
        names = {}
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                names.setdefault(obj, []).append(attr)
        found += [f"{module.__name__}: {' = '.join(both)}"
                  for both in names.values() if len(both) > 1]
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
SAMPLER_AND_RULE = {"permutation", "permuted", "shuffle", "quantile", "percentile", "partition"}


def test_one_sampler_and_one_rule():
    """Only ``permutation.py`` draws relabellings or sorts statistics; every
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


def _called_names(trees) -> dict:
    """The names each function of the package calls, keyed
    ``<module>.<function>``; a nested function's calls count for it and for
    the functions around it."""
    return {
        f"{module}.{func.name}": {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(func) if isinstance(node, ast.Call)
        }
        for module, tree in trees.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
    }


def _callers(called: dict, name: str) -> set:
    """The functions of ``called`` (see :func:`_called_names`) that call
    ``name``."""
    return {caller for caller, calls in called.items() if name in calls}


def test_one_chunk_source():
    """Every plan's masks are evaluated in the chunks of
    ``permutation._plan_chunks``: only it and ``sample_masks`` draw
    ``_mask_chunks``; only the exact chunk source enumerates ``combinations``
    and only ``_plan_chunks`` calls it; ``_plan_chunks`` alone states a
    plan's size S; and ``permutation_test`` neither builds all S masks at
    once nor evaluates them in one call."""
    called = _called_names(_trees())
    callers = partial(_callers, called)
    assert callers("_mask_chunks") == {"permutation.sample_masks", "permutation._plan_chunks"}
    assert callers("combinations") == {"permutation._exact_chunks"}
    assert callers("_exact_chunks") == {"permutation._plan_chunks"}
    assert {caller for caller in callers("comb") if caller.startswith("permutation.")} == {
        "permutation._plan_chunks"}
    assert called["permutation.permutation_test"] & {"plan_masks", "masked_statistics"} == set()
    assert "_plan_chunks" in called["permutation.permutation_test"]


def test_one_chunked_decision_loop():
    """The studies and the limit Monte Carlo decide in one chunked loop,
    ``permutation._sequential_rejections``: it and ``decide`` alone count the
    statistics that reach the observed one."""
    callers = partial(_callers, _called_names(_trees()))
    assert callers("_reached") == {"permutation.decide", "permutation._sequential_rejections"}
    assert callers("_sequential_rejections") == {"permutation._kernel_rejections",
                                                 "asymptotics.power_limit_mc"}


#: the one scipy module the package imports, for ``pdist``/``squareform``
SCIPY_DISTANCES = "scipy.spatial.distance"


def _imported_names(node) -> list:
    """Dotted names an absolute import statement brings in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_scipy_only_for_distances():
    """No module imports from scipy but ``scipy.spatial.distance``."""
    found = [
        f"{module}:{node.lineno} {name}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        for name in _imported_names(node)
        if name.split(".")[0] == "scipy"
        and not f"{name}.".startswith(f"{SCIPY_DISTANCES}.")
    ]
    assert found == []


def test_import_leaves_scipy_stats_unloaded():
    """A fresh interpreter importing the package and its command line loads
    no ``scipy.stats`` module (this process has, through the tests)."""
    code = ("import json, sys, hdtest, hdtest.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats'])))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == []


def _perfbench_tree(name: str):
    return ast.parse((PERFBENCH / name).read_text())


def test_benchmark_bindings_resolve():
    """Every name the benchmark's workloads import from the package, and every
    attribute they read or assign on one of its modules, exists."""
    tree = _perfbench_tree("workloads.py")
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "hdtest":
            source = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(source, alias.name, None)
                if obj is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif inspect.ismodule(obj):
                    modules[alias.asname or alias.name] = obj
    bound = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {("statistic", "build_kernel_matrix"), ("harness", "ProcessPoolExecutor")} <= bound
    missing += [f"{module}.{attr}" for module, attr in sorted(bound)
                if not hasattr(modules[module], attr)]
    assert missing == []


#: per-layer metrics of a function the package no longer has; they read 0
#: until the benchmark drops them (ROADMAP item 1), and no other may join them
KNOWN_DEAD = {
    "diagnostics.marginal_energy_sum",
    "diagnostics.cov_gap",
    "diagnostics.mean_variance_gaps",
}

#: a per-layer metric of one function: <layer>.<function>.<figure>
FUNCTION_METRIC = re.compile(r"(\w+)\.(\w+)\.(?:ms|calls|rows|gflop|masks|self_ms)")


def test_per_layer_metrics_time_public_functions():
    """Each per-layer metric of one function names a public function defined
    in its layer, which the benchmark's tracer times by that name."""
    per_layer = next(
        node.value for node in _perfbench_tree("run.py").body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "PER_LAYER"
    )
    functions = {
        match.group(1, 2)
        for key in per_layer.keys
        if (match := FUNCTION_METRIC.fullmatch(ast.literal_eval(key)))
    }
    dead = set()
    for layer, name in functions:
        obj = getattr(importlib.import_module(f"hdtest.{layer}"), name, None)
        if name.startswith("_") or not inspect.isfunction(obj) \
                or obj.__module__ != f"hdtest.{layer}":
            dead.add(f"{layer}.{name}")
    assert len(functions) > len(KNOWN_DEAD)
    assert dead <= KNOWN_DEAD


#: the public dataclasses built from user input, each checked against its
#: field annotations when it is built
INPUT_DATACLASSES = {"KernelSpec", "ScenarioConfig", "LabeledSample", "PermutationPlan",
                     "MomentConstants", "GaussianProcessSpec", "StudyConfig", "RealDataset"}


def test_one_field_check():
    """Field types are checked in one place, ``kernels._check_fields``: only
    ``kernels.py`` imports ``numbers``, no per-type helper is left, and each
    input dataclass calls the check first in its ``__post_init__``."""
    trees = _trees()
    assert {module for module, tree in trees.items() for node in ast.walk(tree)
            if "numbers" in _imported_names(node)} == {"kernels"}
    helpers = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert helpers & {"_check_integers", "_check_reals", "_check_members"} == set()
    first = {
        node.name: ast.unparse(post.body[0])
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in INPUT_DATACLASSES
        for post in node.body
        if isinstance(post, ast.FunctionDef) and post.name == "__post_init__"
    }
    assert first == dict.fromkeys(INPUT_DATACLASSES, "_check_fields(self)")
