import csv
import functools
import importlib
import inspect
import re
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdtest
from hdtest import harness, permutation
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
from hdtest.permutation import PermutationPlan, decide, permutation_test, sample_masks
from hdtest.statistic import LabeledSample, kernel_matrix_stack, masked_statistics
from tests.strategies import awkward_data


class TestStudyConfig:
    def test_validation(self):
        scen = (ScenarioConfig(example="1", p=10, n=5, m=5),)
        with pytest.raises(ValueError):
            StudyConfig(scenarios=scen, permutations=5)
        with pytest.raises(ValueError):
            StudyConfig(scenarios=(), permutations=50)
        with pytest.raises(ValueError):
            StudyConfig(scenarios=scen, replications=0)

    def test_permutations_beyond_an_index_refused(self):
        scen = (ScenarioConfig(example="1", p=10, n=5, m=5),)
        with pytest.raises(ValueError, match=rf"^permutations must be at most {sys.maxsize}$"):
            StudyConfig(scenarios=scen, permutations=sys.maxsize + 1)

    def test_negative_seed_refused(self):
        scen = (ScenarioConfig(example="1", p=10, n=5, m=5),)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            StudyConfig(scenarios=scen, seed=-1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1])
    def test_alpha_outside_unit_interval(self, alpha):
        scen = (ScenarioConfig(example="1", p=10, n=5, m=5),)
        with pytest.raises(ValueError, match="alpha"):
            StudyConfig(scenarios=scen, alpha=alpha)

    def test_empty_kernel_list_refused(self):
        scen = (ScenarioConfig(example="1", p=10, n=5, m=5),)
        with pytest.raises(ValueError, match="empty kernel list"):
            StudyConfig(scenarios=scen, kernels=())

    def test_scenario_that_is_not_a_config_refused(self):
        scen = (ScenarioConfig(example="1", p=10, n=5, m=5), {"example": "1"})
        with pytest.raises(TypeError, match=re.escape(
                "scenarios must hold ScenarioConfig values, got {'example': '1'}")):
            StudyConfig(scenarios=scen)

    def test_kernel_that_is_not_a_spec_refused(self):
        scen = (ScenarioConfig(example="1", p=10, n=5, m=5),)
        with pytest.raises(TypeError, match="^kernels must hold KernelSpec values, got 'l2'$"):
            StudyConfig(scenarios=scen, kernels=(KernelSpec("l1"), "l2"))


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
    @pytest.mark.parametrize("scale", [1e160, 1e306])
    @pytest.mark.parametrize("labels", [("a", "b"), ("a", "a")])
    def test_overflowing_classes_refused_before_any_replication(self, monkeypatch, scale,
                                                               labels):
        # a same-class control at 1e160 used to reject every replication
        def no_grid(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "_run_grid", no_grid)
        rng = np.random.default_rng(9)
        ds = RealDataset(classes={k: rng.standard_normal((30, 20)) * scale for k in "ab"})
        with pytest.raises(ValueError, match="; rescale the data$"):
            run_realdata_study(ds, [5, 10], replications=20, permutations=40, labels=labels)

    def test_validation(self):
        with pytest.raises(ValueError, match="two classes"):
            RealDataset(classes={"a": np.zeros((5, 3))})
        with pytest.raises(ValueError, match="length"):
            RealDataset(classes={"a": np.zeros((5, 3)), "b": np.zeros((5, 4))})
        with pytest.raises(ValueError, match="length of at least 1"):
            RealDataset(classes={"a": np.zeros((5, 0)), "b": np.zeros((5, 0))})
        with pytest.raises(ValueError, match="fewer than 2"):
            RealDataset(classes={"a": np.zeros((5, 3)), "b": np.zeros((1, 3))})

    @pytest.mark.parametrize("bad, got", [
        (np.zeros(5), "shape (5,)"),
        ([[0.0, 1.0], [2.0, 3.0]], "list"),
        (np.zeros((5, 3, 2)), "shape (5, 3, 2)"),
    ], ids=["1-d", "list", "3-d"])
    def test_class_must_be_a_matrix(self, bad, got):
        message = f"class 'b' must be a 2-d numpy array, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RealDataset(classes={"a": np.zeros((5, 3)), "b": bad})


class TestPowerTable:
    def test_csv_roundtrip(self, tmp_path):
        t = PowerTable()
        t.add("scen", "l2", 0.25, 100)
        t.add("scen", "l1", 0.5, 100)
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
        t.add("s", "l2", 0.5, 100)
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


#: the modules whose public functions a traced benchmark round counts
TRACED = ("datagen", "statistic", "permutation", "harness", "diagnostics", "asymptotics")


def _count_public_calls(monkeypatch) -> Counter:
    """Count the calls of every public function of the ``TRACED`` modules,
    rebinding it wherever one of them, or the package, binds it by name."""
    modules = [importlib.import_module(f"hdtest.{name}") for name in TRACED]
    names = {module.__name__ for module in modules}
    calls, counted = Counter(), {}
    for namespace in (hdtest, *modules):
        for attr, obj in list(vars(namespace).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ not in names:
                continue
            if obj not in counted:
                counted[obj] = _counting(obj, calls)
            monkeypatch.setattr(namespace, attr, counted[obj])
    return calls


def _counting(fn, calls: Counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[f"{fn.__module__.removeprefix('hdtest.')}.{fn.__name__}"] += 1
        return fn(*args, **kwargs)

    return wrapper


class TestEarlyExit:
    """A study draws masks only until each kernel's decision is fixed; the
    decisions are ``decide``'s over all S masks."""

    KERNELS = tuple(KernelSpec(f) for f in FAMILIES)

    @settings(deadline=None, max_examples=100)
    @given(
        data=awkward_data(max_rows=40),
        balanced=st.booleans(),
        cut=st.floats(0, 1),
        alpha=st.sampled_from([0.01, 0.05, 0.1]),
        count=st.integers(20, 2500),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decisions_are_those_of_all_masks(self, data, balanced, cut, alpha, count, seed):
        rows = len(data) // 2 * 2 if balanced else len(data)
        n = rows // 2 if balanced else 2 + int(cut * (rows - 4))
        sample = LabeledSample(data[:rows], n, rows - n)
        masks = sample_masks(sample.n, sample.m, count, seed)
        stats = masked_statistics(kernel_matrix_stack(sample, self.KERNELS), sample.n, sample.m,
                                  masks)
        _, reject = decide(stats, alpha)
        early = multi_kernel_rejections(sample, self.KERNELS, alpha, count, seed)
        assert list(early.values()) == reject.tolist()

    def test_public_call_counts_do_not_depend_on_the_data(self, monkeypatch):
        # a traced benchmark round fails when its rounds call a public
        # function unequally often; here the null replication is decided by
        # its first chunk of masks and the shifted one needs all seven
        null = generate(ScenarioConfig("1", p=40, n=50, m=50, seed=3))
        rng = np.random.default_rng(1)
        data = rng.standard_normal((100, 40))
        data[50:] += 1.0
        shifted = LabeledSample(data, 50, 50)
        chunks = []
        draw = permutation._mask_chunks

        def counted_chunks(*args):
            for block in draw(*args):
                chunks.append(len(block))
                yield block

        monkeypatch.setattr(permutation, "_mask_chunks", counted_chunks)
        calls = _count_public_calls(monkeypatch)
        runs = []
        for sample, decisions in ((null, False), (shifted, True)):
            calls.clear()
            chunks.clear()
            rejections = harness.multi_kernel_rejections(sample, self.KERNELS, 0.05, 1000, 4)
            assert set(rejections.values()) == {decisions}
            runs.append((dict(calls), len(chunks)))
        (null_calls, null_chunks), (shifted_calls, shifted_chunks) = runs
        assert (null_chunks, shifted_chunks) == (1, 7)
        assert null_calls["harness.multi_kernel_rejections"] == 1
        assert null_calls == shifted_calls


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

    @pytest.mark.parametrize("jobs", [5.0, 2.5, True])
    def test_jobs_must_be_an_integer(self, jobs):
        with pytest.raises(TypeError, match=f"^jobs must be an integer, got {jobs!r}$"):
            run_power_study(_tiny_study(replications=1), jobs=jobs)

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
        ({"sizes": []}, "empty size grid"),
        ({"labels": ("a", "zzz")}, re.escape("classes ['a', 'b'], not ('a', 'zzz')")),
        ({"labels": ("a",)}, re.escape("classes ['a', 'b'], not ('a',)")),
        ({"kernels": ()}, "empty kernel list"),
    ])
    def test_bad_arguments_rejected_before_any_replication(self, monkeypatch, kwargs, message):
        def no_work(*args, **kwargs):
            raise AssertionError("a replication ran before the arguments were checked")

        monkeypatch.setattr(harness, "multi_kernel_rejections", no_work)
        args = {"sizes": [10], "replications": 2, "permutations": 40, **kwargs}
        with pytest.raises(ValueError, match=message):
            run_realdata_study(self._dataset(), **args)

    def test_kernel_that_is_not_a_spec_rejected_before_any_replication(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a replication ran before the kernels were checked")

        monkeypatch.setattr(harness, "multi_kernel_rejections", no_work)
        with pytest.raises(TypeError, match="^kernels must hold KernelSpec values, got 'l2'$"):
            run_realdata_study(self._dataset(), [10], kernels=("l2",), replications=2,
                               permutations=40)

    @pytest.mark.parametrize("size", [5.0, True])
    def test_sizes_must_be_integers(self, monkeypatch, size):
        def no_work(*args, **kwargs):
            raise AssertionError("a replication ran before the sizes were checked")

        monkeypatch.setattr(harness, "multi_kernel_rejections", no_work)
        with pytest.raises(TypeError, match=f"^n must be an integer, got {size!r}$"):
            run_realdata_study(self._dataset(), [4, size], replications=2, permutations=40)

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
        assert ds.classes["2"].shape == (2, 2)
        np.testing.assert_array_equal(ds.classes["1"][0], [0.0, 1.0])

    def test_csv_format(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,1,2\nb,3,4\na,5,6\nb,7,8\n")
        ds = load_delimited(f, "csv")
        assert ds.classes["b"].shape == (2, 2)

    def test_byte_order_mark_is_not_part_of_a_label(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("a\t0.0\t1.0\nb\t3.0\t4.0\na\t5.0\t6.0\nb\t7.0\t8.0\n",
                     encoding="utf-8-sig")
        ds = load_delimited(f, "ucr-tsv")
        assert sorted(ds.classes) == ["a", "b"]
        np.testing.assert_array_equal(ds.classes["a"], [[0.0, 1.0], [5.0, 6.0]])

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
