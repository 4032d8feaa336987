"""Golden outputs: study CSVs and test results for fixed seeds are pinned
byte for byte.

A change that alters any RNG stream, the chunking of replications or the
decision rule shows up here as a digest mismatch. Update a digest only
when the change is deliberate, and say so in CHANGES.md.

The suite runs on one BLAS thread (see ``conftest.py``); the studies, the
test results and the limit Monte Carlo are also run in a fresh interpreter
on two, where their digests must not move.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import hdtest
from hdtest.asymptotics import GaussianProcessSpec, power_limit_mc
from hdtest.datagen import ScenarioConfig
from hdtest.harness import RealDataset, StudyConfig, run_power_study, run_realdata_study
from hdtest.kernels import FAMILIES, KernelSpec
from hdtest.permutation import PermutationPlan, permutation_test
from hdtest.statistic import LabeledSample

POWER_SHA256 = "717bf95bc68c8ca68889e50b35c451cd4afb29d7f4c340c90902cf74f1fd855d"
REALDATA_SHA256 = "e5b7460ae7ac1f9dcc3117198883840258c6f31dabf7022f2734529829986bb0"
SAME_CLASS_SHA256 = "7f47f3b7470b424e65f78aae10a9faecb53120289fae7e0154ca724b0d0176fb"
TEST_RESULT_SHA256 = "58136f5581d37c240a349f3453587b3a6ef558d798c4b4fd98334ea1112daf48"
DECISIONS_SHA256 = "cba781a2de4bd6616fca0fff85de447b60d4d68fc07b3018ed7b06da9ab98719"
POWER_LIMIT_SHA256 = "8d0650dc56aa7a732ed61e0f9a1c50281975b896b13c7b0d0b689c9c75286a38"
MULTI_CHUNK_SHA256 = "111e07fff294c2e0284106d542bbbb4c0394e2e8876f2967d9137a0c8ef986f3"


def _csv_sha256(table) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        table.write_csv(path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def _dataset():
    rng = np.random.default_rng(7)
    return RealDataset(
        classes={
            "a": rng.standard_normal((20, 5)),
            "b": 0.6 + rng.standard_normal((20, 5)),
        }
    )


def _power_table(jobs):
    cfg = StudyConfig(
        scenarios=(
            ScenarioConfig("1", p=60, n=12, m=12),
            ScenarioConfig("2i", p=60, n=12, m=12, beta=1.0),
            ScenarioConfig("3i", p=60, n=12, m=11, beta=0.3),
            ScenarioConfig("4i", p=60, n=12, m=12, beta=1.0),
        ),
        replications=20,
        permutations=40,
        seed=11,
    )
    return run_power_study(cfg, jobs=jobs)


def _realdata_table(jobs):
    return run_realdata_study(
        _dataset(), [4, 6], replications=10, permutations=40, seed=3, jobs=jobs
    )


def _same_class_table(jobs):
    return run_realdata_study(
        _dataset(), [4, 6], replications=10, permutations=40, seed=4,
        labels=("b", "b"), jobs=jobs,
    )


#: each study's table builder and its pinned digest
STUDIES = {
    "power": (_power_table, POWER_SHA256),
    "realdata": (_realdata_table, REALDATA_SHA256),
    "same_class": (_same_class_table, SAME_CLASS_SHA256),
}


def study_digests() -> dict:
    """Each study's CSV digest at one job, keyed as in :data:`STUDIES`."""
    return {name: _csv_sha256(build(1)) for name, (build, _) in STUDIES.items()}


@pytest.mark.parametrize("jobs", [1, 2])
def test_power_study_csv(jobs):
    assert _csv_sha256(_power_table(jobs)) == POWER_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_realdata_study_csv(jobs):
    assert _csv_sha256(_realdata_table(jobs)) == REALDATA_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_same_class_control_csv(jobs):
    assert _csv_sha256(_same_class_table(jobs)) == SAME_CLASS_SHA256


def _at_two_blas_threads(name: str):
    """What this module's ``name()`` returns, as JSON, in a fresh interpreter
    with two BLAS threads: BLAS reads its thread count when numpy loads."""
    root = Path(__file__).resolve().parents[1]
    src = Path(hdtest.__file__).resolve().parents[1]
    env = {
        **os.environ,
        **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "2"),
        "PYTHONPATH": os.pathsep.join([str(root), str(src), os.environ.get("PYTHONPATH", "")]),
    }
    code = f"import json; from tests.test_golden import {name}; print(json.dumps({name}()))"
    run = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_study_digests_at_two_blas_threads():
    assert _at_two_blas_threads("study_digests") == {
        name: digest for name, (_, digest) in STUDIES.items()}


def _test_data(kind: str, rows: int) -> np.ndarray:
    """Continuous, integer-valued (ties among the statistics) or partly
    constant data, 7 columns."""
    rng = np.random.default_rng(21)
    if kind == "ties":
        return rng.integers(-2, 3, size=(rows, 7)).astype(float)
    data = rng.standard_normal((rows, 7))
    if kind == "constant":
        data[:, :3] = rng.integers(-2, 3, size=3)
    return data


def _test_results():
    """What ``permutation_test`` reports, for the four kernels, Monte Carlo
    and exact plans, n = m and n != m, and three kinds of data, two of them
    with Y shifted so that about two thirds of the cases reject."""
    for family in FAMILIES:
        for plan in (PermutationPlan(count=40, seed=5), PermutationPlan(mode="exact")):
            for n, m in ((5, 5), (5, 4)):
                for kind, shift in (("continuous", 0.0), ("ties", 1.5), ("constant", 1.0)):
                    data = _test_data(kind, n + m)
                    data[n:] += shift
                    yield permutation_test(LabeledSample(data, n, m), KernelSpec(family),
                                           0.1, plan)


def _sha256(cases) -> str:
    return hashlib.sha256(json.dumps(cases).encode()).hexdigest()


def result_digests() -> dict:
    """Digests of the 48 results: ``test_result`` of everything they report,
    statistics as float hex, and ``decisions`` of the same without the
    statistics, which a change to how the statistic is evaluated must not
    move."""
    results = list(_test_results())
    decisions = [[float.hex(res.p_value), res.reject, sorted(res.w_histogram.items())]
                 for res in results]
    cases = [[float.hex(res.statistic), float.hex(res.critical_value), *decided]
             for res, decided in zip(results, decisions)]
    return {"test_result": _sha256(cases), "decisions": _sha256(decisions)}


def test_result_digest():
    assert result_digests()["test_result"] == TEST_RESULT_SHA256


def test_decisions_digest():
    assert result_digests()["decisions"] == DECISIONS_SHA256


def test_result_digests_at_two_blas_threads():
    assert _at_two_blas_threads("result_digests") == {
        "test_result": TEST_RESULT_SHA256, "decisions": DECISIONS_SHA256}


#: (n, m, plan) of the pinned tests whose masks come in several chunks: Monte
#: Carlo plans of 3, 7 and 39 chunks, and exact 8 x 8 (12 870 masks, 3
#: chunks) and 7 x 9 (11 440 masks, 2 chunks)
MULTI_CHUNK_PLANS = (
    (20, 20, PermutationPlan(count=2000, seed=13)),
    (45, 55, PermutationPlan(count=1000, seed=14)),
    (100, 100, PermutationPlan(count=5000, seed=15)),
    (8, 8, PermutationPlan(mode="exact")),
    (7, 9, PermutationPlan(mode="exact")),
)


def multi_chunk_digest() -> str:
    """Digest of everything ``permutation_test`` reports, statistics as float
    hex, for :data:`MULTI_CHUNK_PLANS`, the four kernels, and continuous and
    integer-valued data, the latter with Y shifted."""
    cases = []
    for n, m, plan in MULTI_CHUNK_PLANS:
        for family in FAMILIES:
            for kind, shift in (("continuous", 0.0), ("ties", 0.5)):
                data = _test_data(kind, n + m)
                data[n:] += shift
                res = permutation_test(LabeledSample(data, n, m), KernelSpec(family), 0.05, plan)
                cases.append([float.hex(res.statistic), float.hex(res.critical_value),
                              float.hex(res.p_value), res.reject,
                              sorted(res.w_histogram.items())])
    return _sha256(cases)


def test_multi_chunk_digest():
    assert multi_chunk_digest() == MULTI_CHUNK_SHA256


def test_multi_chunk_digest_at_two_blas_threads():
    assert _at_two_blas_threads("multi_chunk_digest") == MULTI_CHUNK_SHA256


#: (GaussianProcessSpec arguments, alpha, plan, draws, seed) of the pinned
#: limit Monte Carlo runs: the cases of ``TestBatchedLimitMC``; a 3 x 3 Monte
#: Carlo plan whose 300 masks repeat the 10 distinct relabellings and their
#: complements many times over, at an alpha where the identity's own copies
#: do not decide alone; and a 6 x 6 exact plan
LIMIT_CASES = (
    ((3, 3, 1.0, 1.0, 1.0), 0.05, PermutationPlan(mode="exact"), 20000, 9),
    ((3, 3, 0.0, 0.0, 0.0), 0.05, PermutationPlan(mode="exact"), 1000, 0),
    ((3, 3, 4.0, 1.0, 1.0), 0.05, PermutationPlan(mode="exact"), 5000, 100),
    ((3, 3, 4.0, 1.0, 1.0), 0.05, PermutationPlan(mode="exact"), 5000, 200),
    ((3, 3, 4.0, 1.0, 1.0), 0.05, PermutationPlan(mode="exact"), 5000, 42),
    ((3, 4, 2.0, 1.0, 0.5), 0.05, PermutationPlan(count=60, seed=7), 1500, 3),
    ((4, 6, 1.0, 0.0, 2.0), 0.05, PermutationPlan(mode="exact"), 1000, 11),
    ((5, 3, 0.0, 1.0, 2.0), 0.05, PermutationPlan(mode="exact"), 1000, 12),
    ((10, 10, 1.0, 1.0, 1.0), 0.05, PermutationPlan(count=300, seed=3), 1000, 3),
    ((3, 3, 1.0, 2.0, 0.5), 0.5, PermutationPlan(count=300, seed=8), 2000, 5),
    ((6, 6, 1.0, 1.0, 1.0), 0.05, PermutationPlan(mode="exact"), 1000, 6),
)


def power_limit_digest() -> str:
    """Digest of ``power_limit_mc``'s (rate, se), as float hex, over
    :data:`LIMIT_CASES`."""
    return _sha256([[float.hex(v) for v in power_limit_mc(GaussianProcessSpec(*args), alpha,
                                                            plan, draws, seed=seed)]
                    for args, alpha, plan, draws, seed in LIMIT_CASES])


def test_power_limit_digest():
    assert power_limit_digest() == POWER_LIMIT_SHA256


def test_power_limit_digest_at_two_blas_threads():
    assert _at_two_blas_threads("power_limit_digest") == POWER_LIMIT_SHA256
