import csv
import re
from dataclasses import replace

import numpy as np
import pytest

from hdtest import harness
from hdtest.datagen import ScenarioConfig, generate
from hdtest.harness import (
    PowerTable,
    RealDataset,
    StudyConfig,
    load_delimited,
    multi_kernel_rejections,
    run_power_study,
    run_realdata_study,
)
from hdtest.kernels import FAMILIES, KernelSpec
from hdtest.permutation import PermutationPlan, permutation_test
from hdtest.statistic import LabeledSample


class TestStudyConfig:
    def test_validation(self):
        scen = (ScenarioConfig(example="1", p=10, n=5, m=5),)
        with pytest.raises(ValueError):
            StudyConfig(scenarios=scen, permutations=5)
        with pytest.raises(ValueError):
            StudyConfig(scenarios=(), permutations=50)
        with pytest.raises(ValueError):
            StudyConfig(scenarios=scen, replications=0)

    def test_negative_seed_refused(self):
        scen = (ScenarioConfig(example="1", p=10, n=5, m=5),)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            StudyConfig(scenarios=scen, seed=-1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1])
    def test_alpha_outside_unit_interval(self, alpha):
        scen = (ScenarioConfig(example="1", p=10, n=5, m=5),)
        with pytest.raises(ValueError, match="alpha"):
            StudyConfig(scenarios=scen, alpha=alpha)


class TestKernelLabels:
    SHARED = [
        ((KernelSpec("gaussian", 0.5), KernelSpec("gaussian", 0.5000001)), "gaussian(gamma=0.5)"),
        ((KernelSpec("l2"), KernelSpec("l1"), KernelSpec("l2")), "l2"),
    ]

    @pytest.mark.parametrize("kernels, label", SHARED)
    def test_study_refuses_a_shared_label(self, kernels, label):
        scen = (ScenarioConfig(example="2ii", p=100, n=10, m=10, beta=1.0),)
        with pytest.raises(ValueError, match=re.escape(f"share the label '{label}'")):
            StudyConfig(scenarios=scen, kernels=kernels)

    @pytest.mark.parametrize("kernels, label", SHARED)
    def test_realdata_refuses_a_shared_label(self, monkeypatch, kernels, label):
        def no_work(*args, **kwargs):
            raise AssertionError("a replication ran before the kernels were checked")

        monkeypatch.setattr(harness, "multi_kernel_rejections", no_work)
        rng = np.random.default_rng(8)
        ds = RealDataset(classes={"a": rng.standard_normal((6, 3)),
                                  "b": rng.standard_normal((6, 3))})
        with pytest.raises(ValueError, match=re.escape(f"share the label '{label}'")):
            run_realdata_study(ds, [3], kernels=kernels, replications=2, permutations=40)


class TestRealDataset:
    def test_validation(self):
        with pytest.raises(ValueError, match="two classes"):
            RealDataset(classes={"a": np.zeros((5, 3))})
        with pytest.raises(ValueError, match="length"):
            RealDataset(classes={"a": np.zeros((5, 3)), "b": np.zeros((5, 4))})
        with pytest.raises(ValueError, match="fewer than 2"):
            RealDataset(classes={"a": np.zeros((5, 3)), "b": np.zeros((1, 3))})

    def test_p(self):
        ds = RealDataset(classes={"a": np.zeros((5, 3)), "b": np.ones((4, 3))})
        assert ds.p == 3


class TestPowerTable:
    def test_csv_roundtrip(self, tmp_path):
        t = PowerTable()
        t.add("scen", "l2", 0.25, 100, 1.234)
        t.add("scen", "l1", 0.5, 100, 1.234)
        path = tmp_path / "t.csv"
        t.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "scenario,kernel,rejection_rate,mc_standard_error,replications"
        assert lines[1].startswith("scen,l2,0.25,")
        assert t.rate("scen", "l1") == 0.5
        with pytest.raises(KeyError):
            t.rate("scen", "gaussian")

    def test_standard_error(self):
        t = PowerTable()
        t.add("s", "l2", 0.5, 100, 0.0)
        assert t.rows[0]["mc_standard_error"] == pytest.approx(0.05)


class TestMultiKernelRejections:
    def test_matches_single_kernel_tests(self):
        rng = np.random.default_rng(50)
        data = np.vstack(
            [rng.standard_normal((8, 6)), 0.8 + rng.standard_normal((7, 6))]
        )
        s = LabeledSample(data, 8, 7)
        kernels = tuple(KernelSpec(f) for f in FAMILIES)
        rej = multi_kernel_rejections(s, kernels, alpha=0.05, permutations=120, seed=77)
        for spec in kernels:
            single = permutation_test(
                s, spec, alpha=0.05, plan=PermutationPlan(count=120, seed=77)
            )
            assert rej[spec.family] == single.reject, spec.family

    def test_kernels_of_one_family_kept_apart(self):
        # on this dataset the narrow gaussian rejects and the wide one does not
        s = generate(ScenarioConfig("2ii", p=100, n=10, m=10, beta=1.0, seed=15))
        narrow, wide = KernelSpec("gaussian", 0.5), KernelSpec("gaussian", 50.0)
        alone = {}
        for spec in (narrow, wide):
            alone.update(multi_kernel_rejections(s, (spec,), 0.05, 300, 1))
        assert alone == {"gaussian(gamma=0.5)": True, "gaussian(gamma=50)": False}
        assert multi_kernel_rejections(s, (narrow, wide), 0.05, 300, 1) == alone


def _tiny_study(**kw):
    scen = (ScenarioConfig(example="1", p=12, n=6, m=6),)
    defaults = dict(
        scenarios=scen,
        kernels=(KernelSpec("l2"), KernelSpec("l1")),
        replications=30,
        permutations=40,
        seed=5,
    )
    defaults.update(kw)
    return StudyConfig(**defaults)


class TestRunPowerStudy:
    def test_single_replication_reproducible(self):
        cfg = _tiny_study(replications=1)
        a = run_power_study(cfg)
        b = run_power_study(cfg)
        assert [r["rejection_rate"] for r in a.rows] == [
            r["rejection_rate"] for r in b.rows
        ]
        assert len(a.rows) == 2

    def test_jobs_do_not_change_results(self):
        cfg = _tiny_study()
        serial = run_power_study(cfg, jobs=1)
        parallel = run_power_study(cfg, jobs=3)
        for a, b in zip(serial.rows, parallel.rows):
            assert a["rejection_rate"] == b["rejection_rate"]

    def test_kernels_of_one_family_get_their_own_rows(self):
        scen = (ScenarioConfig(example="2ii", p=30, n=6, m=6, beta=1.0),)
        kernels = (KernelSpec("gaussian", 0.5), KernelSpec("gaussian"), KernelSpec("gaussian", 50))
        together = run_power_study(_tiny_study(scenarios=scen, kernels=kernels))
        assert [r["kernel"] for r in together.rows] == [
            "gaussian(gamma=0.5)", "gaussian", "gaussian(gamma=50)"
        ]
        for spec, row in zip(kernels, together.rows):
            alone = run_power_study(_tiny_study(scenarios=scen, kernels=(spec,)))
            assert alone.rows[0]["rejection_rate"] == row["rejection_rate"], spec

    def test_v_seed_names_the_scenario(self, tmp_path):
        scen = tuple(ScenarioConfig(example="1", p=12, n=6, m=6, v_diag="uniform", v_seed=v)
                     for v in (1, 2))
        run_power_study(_tiny_study(scenarios=scen, replications=2)).write_csv(tmp_path / "t.csv")
        with open(tmp_path / "t.csv") as fh:
            names = [row["scenario"] for row in csv.DictReader(fh)]
        assert names == [scen[0].label] * 2 + [scen[1].label] * 2
        assert scen[0].label != scen[1].label

    def test_repeated_scenario_refused_before_any_replication(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a replication ran before the scenarios were checked")

        monkeypatch.setattr(harness, "multi_kernel_rejections", no_work)
        scen = ScenarioConfig(example="1", p=12, n=6, m=6)
        # the replication seed is not part of a scenario's identity
        cfg = _tiny_study(scenarios=(scen, ScenarioConfig("2i", p=12, n=6, m=6),
                                     replace(scen, seed=4)))
        with pytest.raises(ValueError, match=re.escape(f"share the label '{scen.label}'")):
            run_power_study(cfg)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_refused_before_any_replication(self, monkeypatch, jobs):
        def no_work(*args, **kwargs):
            raise AssertionError("a replication ran before jobs was checked")

        monkeypatch.setattr(harness, "multi_kernel_rejections", no_work)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_power_study(_tiny_study(), jobs=jobs)

    def test_null_scenario_rate_near_level(self):
        cfg = _tiny_study(replications=200, permutations=60)
        table = run_power_study(cfg)
        for row in table.rows:
            assert row["rejection_rate"] <= 0.05 + 3 * 0.05  # loose small-sample bound


class TestRunRealdataStudy:
    def _dataset(self):
        rng = np.random.default_rng(51)
        return RealDataset(
            classes={
                "a": rng.standard_normal((60, 8)),
                "b": 5.0 + rng.standard_normal((60, 8)),
            }
        )

    def test_separated_classes_full_power(self):
        table = run_realdata_study(
            self._dataset(), [10], replications=20, permutations=40, seed=1
        )
        for row in table.rows:
            assert row["rejection_rate"] == 1.0

    def test_same_class_control_near_level(self):
        table = run_realdata_study(
            self._dataset(),
            [10],
            replications=100,
            permutations=60,
            seed=2,
            labels=("a", "a"),
        )
        for row in table.rows:
            assert row["rejection_rate"] <= 0.2

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            run_realdata_study(self._dataset(), [100], replications=2, permutations=40)

    def test_bad_sizes_rejected_before_any_replication(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a replication ran before the sizes were checked")

        monkeypatch.setattr(harness, "multi_kernel_rejections", no_work)
        ds = self._dataset()  # 60 rows per class
        for sizes, labels, what in (
            ([10, 1], None, "n=1"),
            ([10, 61], None, "n=61"),
            ([10, 31], ("a", "a"), "n=31"),
        ):
            with pytest.raises(ValueError, match=what):
                run_realdata_study(ds, sizes, replications=2, permutations=40, labels=labels)
        # 2n = 60 rows is exactly one class, which a same-class control may use
        with pytest.raises(AssertionError, match="replication ran"):
            run_realdata_study(ds, [30], replications=2, permutations=40, labels=("a", "a"))

    @pytest.mark.parametrize("kwargs, message", [
        ({"replications": 0}, "replications"),
        ({"permutations": 0}, "permutations"),
        ({"alpha": 1.5}, "alpha"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"jobs": 0}, "jobs must be >= 1"),
        ({"jobs": -3}, "jobs must be >= 1"),
    ])
    def test_bad_arguments_rejected_before_any_replication(self, monkeypatch, kwargs, message):
        def no_work(*args, **kwargs):
            raise AssertionError("a replication ran before the arguments were checked")

        monkeypatch.setattr(harness, "multi_kernel_rejections", no_work)
        args = {"replications": 2, "permutations": 40, **kwargs}
        with pytest.raises(ValueError, match=message):
            run_realdata_study(self._dataset(), [10], **args)

    def test_repeated_size_refused_before_any_replication(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a replication ran before the sizes were checked")

        monkeypatch.setattr(harness, "multi_kernel_rejections", no_work)
        with pytest.raises(ValueError, match=re.escape("share the label 'realdata:a-vs-b:n=4'")):
            run_realdata_study(self._dataset(), [4, 8, 4], replications=2, permutations=40)

    def test_deterministic_across_jobs(self):
        ds = self._dataset()
        a = run_realdata_study(ds, [8], replications=12, permutations=40, seed=3, jobs=1)
        b = run_realdata_study(ds, [8], replications=12, permutations=40, seed=3, jobs=4)
        assert [r["rejection_rate"] for r in a.rows] == [
            r["rejection_rate"] for r in b.rows
        ]


class TestLoadDelimited:
    def test_two_line_tsv(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("1\t0.0\t1.0\n2\t3.0\t4.0\n2\t5.0\t6.0\n1\t9.0\t8.0\n")
        ds = load_delimited(f, "ucr-tsv")
        assert sorted(ds.classes) == ["1", "2"]
        assert ds.p == 2
        np.testing.assert_array_equal(ds.classes["1"][0], [0.0, 1.0])

    def test_csv_format(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,1,2\nb,3,4\na,5,6\nb,7,8\n")
        ds = load_delimited(f, "csv")
        assert ds.classes["b"].shape == (2, 2)

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("# class, then the series\n1\t0.0\t1.0  # first\n\n2\t3.0\t4.0\n"
                     "2\t5.0\t6.0\n1\t9.0\t8.0\n")
        ds = load_delimited(f, "ucr-tsv")
        np.testing.assert_array_equal(ds.classes["1"], [[0.0, 1.0], [9.0, 8.0]])
        np.testing.assert_array_equal(ds.classes["2"], [[3.0, 4.0], [5.0, 6.0]])

    def test_label_only_row_names_line(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("1\t0.0\t1.0\n2\n")
        with pytest.raises(ValueError, match="line 2: expected a label plus at least one value"):
            load_delimited(f, "ucr-tsv")

    def test_ragged_row_names_line(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("1\t0.0\t1.0\n2\t3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_delimited(f, "ucr-tsv")

    def test_non_numeric_names_line(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("1\t0.0\t1.0\n2\tx\ty\n")
        with pytest.raises(ValueError, match="line 2"):
            load_delimited(f, "ucr-tsv")

    @pytest.mark.parametrize("field", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_names_line(self, tmp_path, field):
        # NaN-padded variable-length UCR rows are refused the same way
        f = tmp_path / "d.tsv"
        f.write_text(f"1\t0.0\t1.0\n2\t3.0\t{field}\n2\t5.0\t6.0\n1\t9.0\t8.0\n")
        with pytest.raises(ValueError, match="line 2: non-finite value"):
            load_delimited(f, "ucr-tsv")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            load_delimited(f, "ucr-tsv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            load_delimited(tmp_path / "d.tsv", "parquet")
