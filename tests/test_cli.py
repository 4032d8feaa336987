import hashlib
import json
import math
import sys
import warnings
from dataclasses import fields as fields_of

import numpy as np
import pytest

from hdtest import diagnostics, statistic
from hdtest.cli import main
from hdtest.datagen import ScenarioConfig, generate
from hdtest.harness import StudyConfig, run_power_study
from hdtest.kernels import FAMILIES, KernelSpec
from hdtest.statistic import psibar_matrix

#: sha256 of ``hdtest diagnose --seed 3`` stdout over ``_diagnose_csvs`` and
#: the four kernels, one run after another
DIAGNOSE_SHA256 = "ce59ebf2981847119ee3250ae7b65bb0160624bd39b26e44858176b30ebf7142"


def _run(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


class TestGenAndTest:
    def test_roundtrip(self, tmp_path, capsys):
        csv_path = tmp_path / "sample.csv"
        out = _run(
            capsys,
            ["gen", "--example", "1", "--p", "20", "--n", "10", "--m", "10",
             "--seed", "4", "--out", str(csv_path)],
        )
        assert "wrote 20 rows x 20 cols" in out
        data = np.loadtxt(csv_path, delimiter=",")
        assert data.shape == (20, 20)

        out = _run(
            capsys,
            ["test", str(csv_path), "--n", "10", "--kernel", "l2",
             "--perms", "60", "--seed", "1"],
        )
        fields = out.strip().split(",")
        assert len(fields) == 4
        float(fields[0]), float(fields[1]), float(fields[2])
        assert fields[3] in ("true", "false")

    def test_exact_mode(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        rng = np.random.default_rng(0)
        np.savetxt(csv_path, rng.standard_normal((5, 3)), delimiter=",")
        out = _run(capsys, ["test", str(csv_path), "--n", "2", "--exact"])
        assert out.count(",") == 3

    def test_bad_group_size(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        np.savetxt(csv_path, np.zeros((4, 2)), delimiter=",")
        with pytest.raises(SystemExit):
            main(["test", str(csv_path), "--n", "3"])

    @pytest.mark.parametrize("command", ["test", "diagnose"])
    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_field_names_its_line(self, tmp_path, command, field):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text(f"0,1\n{field},2\n3,4\n5,6\n")
        with pytest.raises(SystemExit, match="line 2: non-finite value"):
            main([command, str(csv_path), "--n", "2"])

    @pytest.mark.parametrize("command", ["test", "diagnose"])
    @pytest.mark.parametrize("line, message", [
        ("x,2", "non-numeric field"),
        ("1", "ragged row of length 1, expected 2"),
        ("1,2,3", "ragged row of length 3, expected 2"),
    ])
    def test_bad_line_is_named(self, tmp_path, command, line, message):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text(f"0,1\n{line}\n3,4\n5,6\n")
        with pytest.raises(SystemExit, match=f"line 2: {message}") as exc:
            main([command, str(csv_path), "--n", "2"])
        assert str(exc.value).startswith(f"hdtest {command}: {csv_path}: ")
        assert "\n" not in str(exc.value)

    def test_non_finite_line_counts_comments_and_blanks(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("# header\n0,1\n\n3,4\n5,nan\n7,8\n")
        with pytest.raises(SystemExit, match="line 5: non-finite value"):
            main(["test", str(csv_path), "--n", "2"])

    def test_gen_from_json_config(self, tmp_path, capsys):
        cfg = {"example": "3i", "p": 8, "n": 5, "m": 6, "beta": 1.0, "seed": 2}
        cfg_path = tmp_path / "scen.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "o.csv"
        _run(capsys, ["gen", "--config", str(cfg_path), "--out", str(out_path)])
        assert np.loadtxt(out_path, delimiter=",").shape == (11, 8)

    @pytest.mark.parametrize("command", ["test", "diagnose"])
    def test_data_byte_order_mark_is_dropped(self, tmp_path, capsys, command):
        # a file saved with a UTF-8 byte-order mark reads as the same file without
        text = "".join(f"{i},{i * i % 7}\n" for i in range(8))
        outs = []
        for name, encoding in (("plain.csv", "utf-8"), ("bom.csv", "utf-8-sig")):
            csv_path = tmp_path / name
            csv_path.write_text(text, encoding=encoding)
            outs.append(_run(capsys, [command, str(csv_path), "--n", "4", "--seed", "1"]))
        assert outs[0] == outs[1]

    def test_config_byte_order_mark_is_dropped(self, tmp_path, capsys):
        cfg_path = tmp_path / "scen.json"
        cfg_path.write_text(json.dumps({"example": "1", "p": 3, "n": 2, "m": 3}),
                            encoding="utf-8-sig")
        out_path = tmp_path / "o.csv"
        _run(capsys, ["gen", "--config", str(cfg_path), "--out", str(out_path)])
        assert np.loadtxt(out_path, delimiter=",").shape == (5, 3)


def _diagnose_csvs(tmp_path):
    """Two seeded scenario datasets as CSV files, with their group-X sizes."""
    out = []
    for name, cfg in (("a", ScenarioConfig("3i", p=40, n=8, m=8, beta=0.3, seed=2)),
                      ("b", ScenarioConfig("2i", p=25, n=6, m=9, beta=1.0, seed=5))):
        path = tmp_path / f"{name}.csv"
        np.savetxt(path, generate(cfg).data, delimiter=",", fmt="%.17g")
        out.append((str(path), cfg.n))
    return out


class TestDiagnose:
    def test_stdout_golden(self, tmp_path, capsys):
        out = "".join(
            _run(capsys, ["diagnose", path, "--n", str(n), "--kernel", kernel, "--seed", "3"])
            for path, n in _diagnose_csvs(tmp_path)
            for kernel in FAMILIES
        )
        assert hashlib.sha256(out.encode()).hexdigest() == DIAGNOSE_SHA256

    @pytest.mark.parametrize("kernel", FAMILIES)
    def test_builds_each_distance_matrix_once(self, tmp_path, capsys, monkeypatch, kernel):
        calls = []

        def counting(data, squared):
            calls.append(squared)
            return psibar_matrix(data, squared)

        for module in (statistic, diagnostics):
            monkeypatch.setattr(module, "psibar_matrix", counting)
        path, n = _diagnose_csvs(tmp_path)[0]
        _run(capsys, ["diagnose", path, "--n", str(n), "--kernel", kernel])
        assert sorted(calls) == [False, True]

    def test_report_fields(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        rng = np.random.default_rng(1)
        np.savetxt(csv_path, rng.standard_normal((12, 6)), delimiter=",")
        out = _run(capsys, ["diagnose", str(csv_path), "--n", "6"])
        assert "mean_gap," in out
        assert "regime_hint," in out
        assert "v_xy," in out  # groups are big enough for moment estimates


class TestAsymptotics:
    def test_table_shape(self, capsys):
        out = _run(
            capsys,
            ["asymptotics", "--n", "4", "--m", "6", "--kernel", "l1",
             "--e-xy", "2.0", "--v-xy", "1.5"],
        )
        lines = out.strip().split("\n")
        assert lines[0] == "w,f_w,mu_nw,sigma2_nw,pmf"
        assert len(lines) == 1 + 5  # w = 0..min(n, m)
        first = lines[1].split(",")
        assert float(first[1]) == 1.0  # f(0)

    @pytest.mark.parametrize("argv, message", [
        (["--v-x", "nan"], "variances must be finite"),
        (["--e-xy", "inf"], "means must be finite"),
        (["--e-x", "-1"], "means must be finite and nonnegative"),
    ])
    def test_bad_constants_exit_with_one_line(self, argv, message):
        with pytest.raises(SystemExit, match=message) as exc:
            main(["asymptotics", "--n", "4", "--m", "6", *argv])
        assert "\n" not in str(exc.value)


def test_environment_does_not_set_options(monkeypatch, capsys):
    monkeypatch.setenv("HDTEST_JOBS", "abc")
    assert _run(capsys, ["asymptotics", "--n", "3", "--m", "3"]).startswith("w,f_w,")


class TestPowerlimit:
    def test_runs_exact(self, capsys):
        out = _run(
            capsys,
            ["powerlimit", "--n", "3", "--m", "3", "--v-xy", "2", "--exact",
             "--draws", "1000", "--seed", "5"],
        )
        assert out.startswith("power_limit,")

    @pytest.mark.parametrize("argv, message", [
        (["--n", "10", "--m", "10", "--exact"], "exact enumeration needs"),
        (["--n", "3", "--m", "3", "--draws", "100"], "at least 1000 draws"),
        (["--n", "3", "--m", "3", "--alpha", "1.5"], "alpha must be in"),
        (["--n", "3", "--m", "3", "--perms", "0"], "count must be positive"),
        (["--n", "1", "--m", "3"], "n, m >= 2"),
        (["--n", "3", "--m", "3", "--v-x", "nan"], "variances must be finite"),
        (["--n", "3", "--m", "3", "--v-xy", "inf"], "variances must be finite"),
        # counts that would draw without end, refused before any draw
        (["--n", "3", "--m", "3", "--draws", str(10**20)], "draws must be at most"),
        (["--n", "3", "--m", "3", "--perms", str(10**20)], "count must be at most"),
    ])
    def test_user_errors_exit_with_one_line(self, argv, message):
        with pytest.raises(SystemExit, match=message) as exc:
            main(["powerlimit", *argv])
        assert str(exc.value).startswith("hdtest powerlimit: ")
        assert "\n" not in str(exc.value)


class TestStudyCommands:
    def _config(self, tmp_path):
        cfg = {
            "scenarios": [
                {"example": "1", "p": 10, "n": 5, "m": 5},
            ],
            "kernels": ["l2"],
            "replications": 5,
            "permutations": 30,
            "seed": 9,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_power_study(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        out = _run(
            capsys,
            ["power", "--config", str(self._config(tmp_path)), "--out", str(out_path)],
        )
        assert "wrote 1 rows" in out
        text = out_path.read_text()
        assert text.startswith("scenario,kernel,rejection_rate")

    def test_shared_kernel_label_exits_with_one_line(self, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({
            "scenarios": [{"example": "1", "p": 10, "n": 5, "m": 5}],
            "kernels": ["l2", "l2"], "replications": 2, "permutations": 30,
        }))
        with pytest.raises(SystemExit, match="share the label 'l2'") as exc:
            main(["power", "--config", str(path), "--out", str(tmp_path / "t.csv")])
        assert str(exc.value).startswith("hdtest power: ")
        assert "\n" not in str(exc.value)

    def test_repeated_scenario_exits_with_one_line(self, tmp_path):
        scenario = {"example": "1", "p": 10, "n": 5, "m": 5, "v_diag": "uniform"}
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({
            "scenarios": [scenario, {**scenario, "seed": 3}],
            "kernels": ["l2"], "replications": 2, "permutations": 30,
        }))
        with pytest.raises(SystemExit) as exc:
            main(["power", "--config", str(path), "--out", str(tmp_path / "t.csv")])
        label = ScenarioConfig(**scenario).label
        assert str(exc.value) == (
            f"hdtest power: two grid points share the label '{label}', which keys their results"
        )
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_with_one_line(self, tmp_path, jobs):
        out_path = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["power", "--config", str(self._config(tmp_path)), "--jobs", jobs,
                  "--out", str(out_path)])
        assert str(exc.value) == "hdtest power: jobs must be >= 1"
        assert not out_path.exists()

    def test_empty_kernel_list_exits_with_one_line(self, tmp_path):
        path = tmp_path / "none.json"
        path.write_text(json.dumps({
            "scenarios": [{"example": "1", "p": 10, "n": 5, "m": 5}],
            "kernels": [], "replications": 2, "permutations": 30,
        }))
        out_path = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["power", "--config", str(path), "--out", str(out_path)])
        assert str(exc.value) == "hdtest power: empty kernel list"
        assert not out_path.exists()

    def test_size_alias_and_seed_override(self, tmp_path, capsys):
        out_path = tmp_path / "size.csv"
        _run(
            capsys,
            ["size", "--config", str(self._config(tmp_path)), "--seed", "123",
             "--out", str(out_path)],
        )
        assert out_path.exists()


class TestConfigBoundary:
    """Configs are built by the package's own types, which refuse an unknown
    key and default a missing one; a bad config or a missing file ends in
    one line."""

    SCENARIO = {"example": "1", "p": 10, "n": 5, "m": 5}

    @staticmethod
    def _exit_line(argv) -> str:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main(argv)
        line = str(exc.value)
        assert line.startswith(f"hdtest {argv[0]}: ")
        assert "\n" not in line
        return line

    @pytest.mark.parametrize("doc, message", [
        ({"scenarios": [SCENARIO], "replicatons": 3},
         "unexpected keyword argument 'replicatons'"),
        ({"scenarios": [SCENARIO], "kernels": [{"family": "gaussian", "gama": 2}]},
         "unexpected keyword argument 'gama'"),
        ({"scenarios": [SCENARIO], "kernels": [{"gamma": 2}]},
         "missing 1 required positional argument: 'family'"),
        ({"scenarios": [{**SCENARIO, "bta": 0.5}]}, "unexpected keyword argument 'bta'"),
        ([SCENARIO], "not a mapping"),
        ("{", "Expecting property name"),
        ({"scenarios": [SCENARIO], "replications": 2.5},
         "replications must be an integer, got 2.5"),
        ({"scenarios": [SCENARIO], "permutations": 40.5},
         "permutations must be an integer, got 40.5"),
        ({"scenarios": [SCENARIO], "seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"scenarios": [SCENARIO], "seed": 2.0}, "seed must be an integer, got 2.0"),
        ({"scenarios": [{**SCENARIO, "n": 5.0}]}, "n must be an integer, got 5.0"),
        ({"scenarios": [SCENARIO], "kernels": [{"family": "gaussian", "gamma": True}]},
         "gamma must be a real number, got True"),
        ({"scenarios": [{**SCENARIO, "rho": "0.5"}]}, "rho must be a real number, got '0.5'"),
        ({"scenarios": [SCENARIO], "alpha": "0.05"}, "alpha must be a real number, got '0.05'"),
    ])
    def test_bad_study_config_names_the_file(self, tmp_path, doc, message):
        path = tmp_path / "study.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        line = self._exit_line(["power", "--config", str(path),
                                "--out", str(tmp_path / "t.csv")])
        assert line.startswith(f"hdtest power: {path}: ")
        assert message in line

    def test_missing_scenarios_is_an_empty_grid(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"kernels": ["l2"], "replications": 2}))
        line = self._exit_line(["power", "--config", str(path)])
        assert line == "hdtest power: empty scenario grid"

    @pytest.mark.parametrize("doc, message", [
        ({**SCENARIO, "bta": 0.5}, "unexpected keyword argument 'bta'"),
        ([SCENARIO], "must be a mapping, not list"),
        ({**SCENARIO, "p": 2.5}, "p must be an integer, got 2.5"),
        ({**SCENARIO, "n": 5.0}, "n must be an integer, got 5.0"),
        ({**SCENARIO, "p": True}, "p must be an integer, got True"),
        ({**SCENARIO, "seed": 1.5}, "seed must be an integer, got 1.5"),
        ({**SCENARIO, "beta": True}, "beta must be a real number, got True"),
        ({**SCENARIO, "rho": "0.5"}, "rho must be a real number, got '0.5'"),
    ])
    def test_bad_scenario_config_names_file_and_key(self, tmp_path, doc, message):
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(doc))
        line = self._exit_line(["gen", "--config", str(path),
                                "--out", str(tmp_path / "o.csv")])
        assert line.startswith(f"hdtest gen: {path}: ")
        assert message in line

    @pytest.mark.parametrize("argv", [
        ["test", "{missing}", "--n", "2"],
        ["diagnose", "{missing}", "--n", "2"],
        ["power", "--config", "{missing}"],
        ["gen", "--config", "{missing}"],
        ["realdata", "--file", "{missing}"],
    ])
    def test_missing_file_exits_with_one_line(self, tmp_path, argv):
        missing = str(tmp_path / "absent.txt")
        argv = [arg.format(missing=missing) for arg in argv]
        line = self._exit_line(argv)
        assert "No such file or directory" in line and missing in line

    def test_scenarios_alone_take_study_defaults(self, tmp_path, capsys):
        scenarios = [{"example": "2i", "p": 3, "n": 4, "m": 4, "beta": 1.0}]
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"scenarios": scenarios}))
        out_path = tmp_path / "cli.csv"
        _run(capsys, ["power", "--config", str(path), "--out", str(out_path)])
        table = run_power_study(StudyConfig(tuple(ScenarioConfig(**s) for s in scenarios)))
        table.write_csv(tmp_path / "api.csv")
        assert out_path.read_bytes() == (tmp_path / "api.csv").read_bytes()

    @pytest.mark.parametrize("field", ["p", "n", "m"])
    def test_size_beyond_an_index_exits_with_one_line(self, tmp_path, field):
        # a p this large ended in an OverflowError inside the generator
        big, out = 10**20, tmp_path / "o.csv"
        scen, study = tmp_path / "scen.json", tmp_path / "study.json"
        scen.write_text(json.dumps({**self.SCENARIO, field: big}))
        study.write_text(json.dumps({"scenarios": [{**self.SCENARIO, field: big}],
                                     "replications": 2, "permutations": 30}))
        for argv in (["gen", f"--{field}", str(big)], ["gen", "--config", str(scen)],
                     ["power", "--config", str(study)]):
            line = self._exit_line([*argv, "--out", str(out)])
            assert line == f"hdtest {argv[0]}: {field} must be at most {sys.maxsize}"
            assert not out.exists()

    #: JSON values that meet the boundary check: a bool, a string, null,
    #: non-finite numbers, a float for an integer, an integer beyond the
    #: float range and empty containers
    JSON_CORPUS = [True, "1", None, math.nan, math.inf, 2.0, 10**400, [], {}]

    KERNEL = {"family": "gaussian", "gamma": 1.0}

    @pytest.mark.parametrize("where, key", [
        *(("study", f.name) for f in fields_of(StudyConfig)),
        *(("scenario", f.name) for f in fields_of(ScenarioConfig)),
        *(("kernel", f.name) for f in fields_of(KernelSpec)),
        *(("gen", f.name) for f in fields_of(ScenarioConfig)),
    ])
    def test_refused_json_value_exits_with_one_line(self, tmp_path, where, key):
        """Each JSON value the library refuses for a key of a ``power`` or a
        ``gen --config`` document ends in one line and writes nothing; a value
        it accepts is not run, since it may start unbounded work."""
        study = {"replications": 2, "permutations": 30}
        path, out = tmp_path / "config.json", tmp_path / "o.csv"
        refused = 0
        for value in self.JSON_CORPUS:
            scenario, kernel = {**self.SCENARIO}, {**self.KERNEL}
            if where == "study":
                doc = {"scenarios": [scenario], "kernels": [kernel], **study, key: value}
            else:
                (kernel if where == "kernel" else scenario)[key] = value
                doc = scenario if where == "gen" else {
                    "scenarios": [scenario], "kernels": [kernel], **study}
            try:
                if where == "study":
                    StudyConfig(**{**study, "scenarios": (ScenarioConfig(**scenario),),
                                   "kernels": (KernelSpec(**kernel),), key: value})
                else:
                    KernelSpec(**kernel), ScenarioConfig(**scenario)
                continue
            except (TypeError, ValueError):
                refused += 1
            path.write_text(json.dumps(doc))
            command = "gen" if where == "gen" else "power"
            self._exit_line([command, "--config", str(path), "--out", str(out)])
            assert not out.exists(), (key, value)
        assert refused >= 5


class TestRealdataCommand:
    def test_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        lines = []
        for _ in range(20):
            lines.append("1\t" + "\t".join(f"{v:.4f}" for v in rng.standard_normal(5)))
        for _ in range(20):
            lines.append("2\t" + "\t".join(f"{v:.4f}" for v in 3 + rng.standard_normal(5)))
        data_path = tmp_path / "d.tsv"
        data_path.write_text("\n".join(lines) + "\n")
        out_path = tmp_path / "rd.csv"
        out = _run(
            capsys,
            ["realdata", "--file", str(data_path), "--sizes", "5,10",
             "--replications", "4", "--perms", "30", "--out", str(out_path)],
        )
        assert "wrote 8 rows" in out  # 2 sizes x 4 kernels


class TestDataScale:
    """Data whose distances, kernel values, pair sums or diagnostics squares
    could overflow is refused in one line that says to rescale, before any
    of them is computed, so no command prints a nan statistic or a p-value
    below 1/S. Large but safe scales and offsets run with finite output."""

    @staticmethod
    def _files(tmp_path, transform):
        rng = np.random.default_rng(8)
        csv_path = tmp_path / "s.csv"
        np.savetxt(csv_path, transform(rng.standard_normal((20, 30))), delimiter=",",
                   fmt="%.17g")
        tsv_path = tmp_path / "d.tsv"
        tsv_path.write_text("".join(
            f"{label}\t" + "\t".join(f"{v:.17g}" for v in transform(rng.standard_normal(20)))
            + "\n" for label in "ab" for _ in range(30)
        ))
        return str(csv_path), str(tsv_path)

    @staticmethod
    def _main(argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(argv)

    @pytest.mark.parametrize("scale", [1e160, 1e306])
    @pytest.mark.parametrize("kernel", FAMILIES)
    @pytest.mark.parametrize("command", ["test", "diagnose"])
    def test_overflowing_data_refused(self, tmp_path, command, kernel, scale):
        csv_path, _ = self._files(tmp_path, lambda d: d * scale)
        with pytest.raises(SystemExit, match="; rescale the data$") as exc:
            self._main([command, csv_path, "--n", "10", "--kernel", kernel])
        assert str(exc.value).startswith(f"hdtest {command}: largest |value| ")
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("scale", [1e160, 1e306])
    def test_overflowing_study_refused(self, tmp_path, scale):
        _, tsv_path = self._files(tmp_path, lambda d: d * scale)
        with pytest.raises(SystemExit, match="; rescale the data$"):
            self._main(["realdata", "--file", tsv_path, "--sizes", "10", "--replications",
                        "20", "--perms", "40", "--out", str(tmp_path / "out.csv")])

    @pytest.mark.parametrize("transform", [lambda d: d * 1e30, lambda d: d + 1e8],
                             ids=["scale-1e30", "offset-1e8"])
    def test_large_scale_and_offset_accepted(self, tmp_path, capsys, transform):
        csv_path, tsv_path = self._files(tmp_path, transform)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in FAMILIES:
                out = _run(capsys, ["test", csv_path, "--n", "10", "--kernel", kernel])
                stat, crit, p_value, _ = out.strip().split(",")
                assert math.isfinite(float(stat)) and math.isfinite(float(crit))
                assert 1 / 300 <= float(p_value) <= 1.0
                out = _run(capsys, ["diagnose", csv_path, "--n", "10", "--kernel", kernel])
                values = [line.split(",")[1] for line in out.splitlines()[1:]
                          if not line.startswith("regime_hint,")]
                assert len(values) == 10 and all(math.isfinite(float(v)) for v in values)
            out = _run(capsys, ["realdata", "--file", tsv_path, "--sizes", "10",
                                "--replications", "4", "--perms", "40",
                                "--out", str(tmp_path / "out.csv")])
        assert "wrote 4 rows" in out


class TestBandwidthRange:
    """A bandwidth whose 2 gamma^2 overflows or is subnormal ends in one
    line and no warning, for a test, the limit tables and a study."""

    @staticmethod
    def _exit_line(argv) -> str:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main(argv)
        return str(exc.value)

    @pytest.mark.parametrize("gamma", ["1e200", "1e-160"])
    @pytest.mark.parametrize("kernel", ["gaussian", "laplacian"])
    def test_test_and_asymptotics_exit(self, tmp_path, kernel, gamma):
        csv_path = tmp_path / "ok.csv"
        np.savetxt(csv_path, np.random.default_rng(3).standard_normal((20, 30)),
                   delimiter=",")
        message = ("bandwidth must be positive and finite, with 2 gamma^2 a normal float, "
                   f"got {float(gamma)}")
        for argv in (["test", str(csv_path), "--n", "10"],
                     ["asymptotics", "--n", "5", "--m", "5"]):
            line = self._exit_line([*argv, "--kernel", kernel, "--gamma", gamma])
            assert line == f"hdtest {argv[0]}: {message}"

    def test_study_exits(self, tmp_path):
        # an integer too large for a float is refused as no float, in the file
        path = tmp_path / "study.json"
        for gamma, message in (
                (1e200, "bandwidth must be positive and finite, with 2 gamma^2 a normal float, "
                        "got 1e+200"),
                (10**400, f"{path}: gamma must be a real number within the float range")):
            path.write_text(json.dumps({
                "scenarios": [{"example": "1", "p": 10, "n": 5, "m": 5}],
                "kernels": ["l2", {"family": "gaussian", "gamma": gamma}],
                "replications": 2, "permutations": 30,
            }))
            line = self._exit_line(["power", "--config", str(path),
                                    "--out", str(tmp_path / "t.csv")])
            assert line == f"hdtest power: {message}"
            assert not (tmp_path / "t.csv").exists()


class TestErrorBoundary:
    """A ValueError from any command ends in one line naming the command."""

    @pytest.fixture
    def files(self, tmp_path):
        rng = np.random.default_rng(3)
        csv_path = tmp_path / "s.csv"
        np.savetxt(csv_path, rng.standard_normal((20, 4)), delimiter=",")
        tsv_path = tmp_path / "d.tsv"
        tsv_path.write_text("".join(
            f"{label}\t" + "\t".join(f"{v:.4f}" for v in rng.standard_normal(4)) + "\n"
            for label in "ab" for _ in range(8)
        ))
        study_path = tmp_path / "study.json"
        study_path.write_text(json.dumps({
            "scenarios": [{"example": "1", "p": 10, "n": 5, "m": 5}],
            "kernels": ["l2"], "alpha": 1.5, "replications": 4, "permutations": 30,
        }))
        return {"csv": str(csv_path), "tsv": str(tsv_path), "study": str(study_path),
                "out": str(tmp_path / "out.csv")}

    @pytest.mark.parametrize("argv, message", [
        (["test", "{csv}", "--n", "10", "--alpha", "1.5"], "alpha must be in"),
        (["test", "{csv}", "--n", "10", "--perms", "0"], "count must be positive"),
        (["test", "{csv}", "--n", "10", "--exact"], "exact enumeration needs"),
        (["test", "{csv}", "--n", "10", "--kernel", "gaussian", "--gamma", "0"],
         "bandwidth must be positive"),
        (["diagnose", "{csv}", "--n", "10", "--kernel", "laplacian", "--gamma", "-1"],
         "bandwidth must be positive"),
        (["gen", "--rho", "2", "--out", "{out}"], "rho must be in"),
        (["gen", "--p", "0", "--out", "{out}"], "dimension p must be at least 1"),
        (["gen", "--n", "1", "--out", "{out}"], "at least 2 observations"),
        (["realdata", "--file", "{tsv}", "--sizes", "9", "--out", "{out}"],
         "exceeds a class size"),
        (["realdata", "--file", "{tsv}", "--sizes", "4", "--replications", "0",
          "--out", "{out}"], "replications must be >= 1"),
        (["realdata", "--file", "{tsv}", "--sizes", "4", "--perms", "0", "--out", "{out}"],
         "at least 20 permutations"),
        (["power", "--config", "{study}", "--jobs", "2", "--out", "{out}"],
         "alpha must be in"),
        (["gen", "--seed", "-1", "--out", "{out}"], "seed must be >= 0"),
        (["realdata", "--file", "{tsv}", "--sizes", "4", "--jobs", "0", "--out", "{out}"],
         "jobs must be >= 1"),
        (["realdata", "--file", "{tsv}", "--sizes", "2,x", "--out", "{out}"],
         "--sizes: 'x' is not an integer"),
        (["test", "{csv}", "--n", "10", "--kernel", "gaussian", "--gamma", "inf"],
         "bandwidth must be positive and finite"),
        # counts that would draw masks without end, refused before any draw
        (["test", "{csv}", "--n", "10", "--perms", str(10**20)], "count must be at most"),
        (["realdata", "--file", "{tsv}", "--sizes", "4", "--perms", str(10**20),
          "--out", "{out}"], "permutations must be at most"),
    ])
    def test_value_error_exits_with_one_line(self, files, argv, message):
        argv = [arg.format(**files) for arg in argv]
        with pytest.raises(SystemExit, match=message) as exc:
            main(argv)
        assert str(exc.value).startswith(f"hdtest {argv[0]}: ")
        assert "\n" not in str(exc.value)
