"""Golden outputs: study CSVs for fixed seeds are pinned byte for byte.

A change that alters any RNG stream, the chunking of replications or the
decision rule shows up here as a digest mismatch. Update a digest only
when the change is deliberate, and say so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from hdtest.datagen import ScenarioConfig
from hdtest.harness import RealDataset, StudyConfig, run_power_study, run_realdata_study

POWER_SHA256 = "717bf95bc68c8ca68889e50b35c451cd4afb29d7f4c340c90902cf74f1fd855d"
REALDATA_SHA256 = "e5b7460ae7ac1f9dcc3117198883840258c6f31dabf7022f2734529829986bb0"
SAME_CLASS_SHA256 = "7f47f3b7470b424e65f78aae10a9faecb53120289fae7e0154ca724b0d0176fb"


def _csv_sha256(table, tmp_path) -> str:
    path = tmp_path / "table.csv"
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


@pytest.mark.parametrize("jobs", [1, 2])
def test_power_study_csv(jobs, tmp_path):
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
    assert _csv_sha256(run_power_study(cfg, jobs=jobs), tmp_path) == POWER_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_realdata_study_csv(jobs, tmp_path):
    table = run_realdata_study(
        _dataset(), [4, 6], replications=10, permutations=40, seed=3, jobs=jobs
    )
    assert _csv_sha256(table, tmp_path) == REALDATA_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_same_class_control_csv(jobs, tmp_path):
    table = run_realdata_study(
        _dataset(), [4, 6], replications=10, permutations=40, seed=4,
        labels=("b", "b"), jobs=jobs,
    )
    assert _csv_sha256(table, tmp_path) == SAME_CLASS_SHA256
