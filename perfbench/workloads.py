"""The three benchmark workloads, each a closed loop with one client.

A workload builds its inputs from the seed when constructed, warms up, then
runs rounds until the time is up. Every call into hdtest goes through a
module attribute (``permutation.permutation_test``, ...) so that a tracer
installed after construction sees it. Outputs are checked after each timed
call, outside the timed region.
"""

from __future__ import annotations

import math
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from operator import truediv
from pathlib import Path

import numpy as np

from hdtest import asymptotics, datagen, diagnostics, harness, permutation, statistic
from hdtest.asymptotics import GaussianProcessSpec
from hdtest.datagen import ScenarioConfig
from hdtest.harness import StudyConfig
from hdtest.kernels import FAMILIES, KernelSpec
from hdtest.permutation import PermutationPlan

ALPHA = 0.05
KERNELS = tuple(KernelSpec(f) for f in FAMILIES)  # l2, l1, gaussian, laplacian

# references are bound here, before any tracer rebinds the module names
_build_kernel_matrix = statistic.build_kernel_matrix
_ed_statistic = statistic.ed_statistic


#: share of a call's time spent timing the reference GEMM before the next
#: call of its kind
REFERENCE_SHARE = 0.03


class Recorder:
    """Timed calls of one run, and the checks made on their outputs.

    Before each call the recorder times a reference computation, a fixed
    single-threaded GEMM (200x400 by 400x200) that hdtest has no part in,
    repeated for about 3% of the previous call's time. On a small shared host
    the speed of any fixed loop drifts by 20% and more over seconds to
    minutes, and hdtest's calls drift with it; a call's time divided by the
    time of one reference GEMM just before it does not, so the bounded
    metrics are counted in reference times ("ref").

    With a tracer, each call also notes the range of spans it recorded, so
    spans made by the checks between calls are left out.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.round = 0
        # (kind, seconds, seconds per reference GEMM, round, first span, end span)
        self.ops: list[tuple] = []
        self._reps: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        rng = np.random.default_rng(0)
        self._ref_a = rng.standard_normal((200, 400))
        self._ref_b = rng.standard_normal((400, 200))

    def _reference(self, reps: int) -> float:
        start = time.perf_counter()
        for _ in range(reps):
            self._ref_a @ self._ref_b
        return (time.perf_counter() - start) / reps

    def time(self, kind, fn, *args, **kwargs):
        self.attempted += 1
        ref = self._reference(self._reps.get(kind, 4))
        first = len(self.tracer.spans) if self.tracer else 0
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        end = len(self.tracer.spans) if self.tracer else 0
        self.ops.append((kind, seconds, ref, self.round, first, end))
        self._reps[kind] = max(1, round(REFERENCE_SHARE * seconds / ref))
        return out

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def seconds(self, kind: str) -> list[float]:
        return [op[1] for op in self.ops if op[0] == kind]

    def refs(self, kind: str) -> list[float]:
        """Seconds per reference GEMM, timed before each call of ``kind``."""
        return [op[2] for op in self.ops if op[0] == kind]


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _round_seed(seed: int, i: int) -> int:
    """Seed of round i, hashed so that consecutive rounds share no structure."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _fsum_reference(sample, spec) -> tuple[float, float]:
    """Compensated-sum statistic and the sum of the absolute weighted terms
    it adds up, which is the scale its rounding error is relative to."""
    km = _build_kernel_matrix(sample, spec)
    n, m, k = km.n, km.m, np.abs(km.values)
    scale = (
        2.0 / (n * m) * k[:n, n:].sum()
        + 1.0 / (n * (n - 1)) * k[:n, :n].sum()
        + 1.0 / (m * (m - 1)) * k[n:, n:].sum()
    )
    return _ed_statistic(km), scale


class TestWide:
    """One analyst testing one wide dataset: back-to-back permutation tests
    on four example-3ii datasets, the kernel changing on every call."""

    name = "test-wide"
    kinds = ("test",)

    def __init__(self, seed: int, tiny: bool):
        p, n, self.count = (200, 20, 100) if tiny else (5000, 100, 500)
        self.seed = seed
        self.samples = [
            datagen.generate(ScenarioConfig("3ii", p=p, n=n, m=n, beta=0.1, seed=s))
            for s in _seeds(seed, 4)
        ]
        self.refs: dict = {}
        self.max_rel_err = 0.0

    def warm_up(self) -> None:
        for spec in KERNELS:
            permutation.permutation_test(
                self.samples[0], spec, ALPHA, PermutationPlan(count=self.count, seed=0)
            )

    def round(self, i: int, rec: Recorder) -> None:
        # the kernel cycles fastest, so every 16 calls cover every pairing
        which, spec = (i // 4) % 4, KERNELS[i % 4]
        sample = self.samples[which]
        plan = PermutationPlan(count=self.count, seed=_round_seed(self.seed, i))
        res = rec.time("test", permutation.permutation_test, sample, spec, ALPHA, plan)
        rec.check(1.0 / self.count <= res.p_value <= 1.0, f"p-value {res.p_value} outside [1/S, 1]")
        rec.check(res.reject == (res.statistic > res.critical_value), "reject != (stat > crit)")
        if (which, spec) not in self.refs:
            self.refs[which, spec] = _fsum_reference(sample, spec)
        ref, scale = self.refs[which, spec]
        err = abs(res.statistic - ref)
        self.max_rel_err = max(self.max_rel_err, err / abs(ref))
        rec.check(err <= 1e-12 * scale, f"statistic {res.statistic!r} != fsum {ref!r}")

    def finish(self, rec: Recorder) -> None:
        pass

    def summary(self, rec: Recorder) -> dict:
        secs, refs = rec.seconds("test"), rec.refs("test")
        ms = [1e3 * s for s in secs]
        # a block of 16 calls covers every kernel and dataset once, so it
        # weighs the four kernels alike
        starts = range(0, len(secs) - 15, 16)
        blocks = [sum(secs[i : i + 16]) / sum(refs[i : i + 16]) for i in starts]
        call = statistics.median(blocks or [sum(secs) / sum(refs)])
        return {
            "call_time.p50": call,
            "work_rate.p50": 1.0 / call,
            "test_ms.p50": statistics.median(ms),
            "test_ms.p90": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
            "tests": len(ms),
            "statistic.fsum_max_rel_err": self.max_rel_err,
        }


class _CountingPool(ProcessPoolExecutor):
    """ProcessPoolExecutor that counts how many times it is created."""

    created = 0

    def __init__(self, *args, **kwargs):
        _CountingPool.created += 1
        super().__init__(*args, **kwargs)


def _csv_bytes(table) -> bytes:
    with tempfile.TemporaryDirectory(prefix=".csv-", dir=Path(__file__).parent) as tmp:
        path = Path(tmp) / "table.csv"
        table.write_csv(path)
        return path.read_bytes()


class StudyNarrow:
    """The paper's power tables: a fixed four-point grid, all four kernels,
    run once with jobs=1 and once with jobs=2 from the same config."""

    name = "study-narrow"
    kinds = ("study-jobs1", "study-jobs2")

    def __init__(self, seed: int, tiny: bool):
        p, n = (20, 10) if tiny else (200, 50)
        # alpha * S is whole, so the test's exact size is alpha
        self.replications, self.permutations = (2, 100) if tiny else (10, 1000)
        self.scenarios = (
            ScenarioConfig("1", p=p, n=n, m=n),
            ScenarioConfig("2i", p=p, n=n, m=n, beta=0.2),
            ScenarioConfig("3i", p=p, n=n, m=n, beta=0.3),
            ScenarioConfig("4i", p=p, n=n, m=n, beta=0.5),
        )
        self.seed = seed
        self.null_rejections = dict.fromkeys(FAMILIES, 0)
        self.null_replications = 0
        self.pools: list[int] = []
        harness.ProcessPoolExecutor = _CountingPool
        for cfg in self.scenarios:  # fills the datagen square-root cache
            datagen.generate(cfg)

    def warm_up(self) -> None:
        for cfg in self.scenarios:
            harness.multi_kernel_rejections(
                datagen.generate(cfg), KERNELS, ALPHA, self.permutations, 0
            )

    def round(self, i: int, rec: Recorder) -> None:
        cfg = StudyConfig(
            scenarios=self.scenarios,
            kernels=KERNELS,
            alpha=ALPHA,
            replications=self.replications,
            permutations=self.permutations,
            seed=_round_seed(self.seed, i),
        )
        serial = rec.time("study-jobs1", harness.run_power_study, cfg, jobs=1)
        null_label = serial.rows[0]["scenario"]
        for spec in KERNELS:
            rate = serial.rate(null_label, spec.family)
            rec.check(0.0 <= rate <= 1.0, f"rate {rate} outside [0, 1]")
            self.null_rejections[spec.family] += round(rate * self.replications)
        self.null_replications += self.replications
        if rec.tracer:  # spans of worker processes are not recorded
            return
        before = _CountingPool.created
        parallel = rec.time("study-jobs2", harness.run_power_study, cfg, jobs=2)
        self.pools.append(_CountingPool.created - before)
        rec.check(_csv_bytes(serial) == _csv_bytes(parallel), "jobs=1 and jobs=2 CSVs differ")

    def finish(self, rec: Recorder) -> None:
        se = math.sqrt(ALPHA * (1.0 - ALPHA) / self.null_replications)
        for family, count in self.null_rejections.items():
            rate = count / self.null_replications
            rec.check(abs(rate - ALPHA) <= 3.0 * se,
                      f"{family} null rate {rate} not within alpha +- 3 SE")
        rec.check(len(set(self.pools)) <= 1, f"pools per jobs=2 study vary: {self.pools}")

    def summary(self, rec: Recorder) -> dict:
        reps = len(self.scenarios) * self.replications
        serial = rec.seconds("study-jobs1")
        parallel = rec.seconds("study-jobs2")
        out = {
            "call_time.p50": statistics.median(map(truediv, serial, rec.refs("study-jobs1"))),
            "study_ms.jobs1": 1e3 * statistics.median(serial),
            "study_reps_per_s.jobs1": statistics.median(reps / s for s in serial),
            "studies": len(serial),
        }
        if parallel:
            out["work_rate.p50"] = reps / statistics.median(
                map(truediv, parallel, rec.refs("study-jobs2"))
            )
            out["study_reps_per_s.jobs2"] = statistics.median(reps / s for s in parallel)
            out["harness.pools_created"] = self.pools[0]
            out["harness.parallel_efficiency"] = (
                statistics.median(serial) / (2 * statistics.median(parallel))
            )
        return out


class DiagnoseLimit:
    """The two paths other than the test: ``hdtest diagnose`` on example-3i
    data, alternating with the limiting-power Monte Carlo."""

    name = "diagnose-limit"
    kinds = ("diagnose", "limit-exact", "limit-mc")

    def __init__(self, seed: int, tiny: bool):
        p, n = (30, 10) if tiny else (500, 50)
        self.null_reps = 5 if tiny else 50
        mc_n, self.mc_count = (4, 50) if tiny else (10, 300)
        self.draws = 1000  # the least power_limit_mc accepts
        self.seed = seed
        self.samples = [
            datagen.generate(ScenarioConfig("3i", p=p, n=n, m=n, beta=0.3, seed=s))
            for s in _seeds(seed, 4)
        ]
        self.exact = GaussianProcessSpec(3, 3, 1.0, 1.0, 1.0)
        self.mc = GaussianProcessSpec(mc_n, mc_n, 1.0, 1.0, 1.0)
        self.refs: dict = {}

    def _diagnose(self, sample, seed):
        report = diagnostics.discrepancy_report(sample, null_reps=self.null_reps, seed=seed)
        return report, diagnostics.estimate_moment_constants(sample, KERNELS[0])

    def warm_up(self) -> None:
        diagnostics.discrepancy_report(self.samples[0], null_reps=1, seed=0)
        diagnostics.estimate_moment_constants(self.samples[0], KERNELS[0])
        asymptotics.power_limit_mc(self.exact, ALPHA, PermutationPlan(mode="exact"), self.draws)
        asymptotics.power_limit_mc(
            self.mc, ALPHA, PermutationPlan(count=self.mc_count), self.draws
        )

    def round(self, i: int, rec: Recorder) -> None:
        which = i % 4
        sample = self.samples[which]
        seed = _round_seed(self.seed, i)
        report, consts = rec.time("diagnose", self._diagnose, sample, seed)
        if which not in self.refs:
            self.refs[which] = _ed_statistic(_build_kernel_matrix(sample, KernelSpec("l1")))
        ref = self.refs[which]
        rec.check(
            abs(report.marginal_ed_sum - ref) <= 1e-10 * abs(ref),
            f"marginal_ed_sum {report.marginal_ed_sum!r} != pooled l1 statistic {ref!r}",
        )
        rec.check(all(map(math.isfinite, vars(consts).values())), "non-finite moment constant")

        rate, se = rec.time(
            "limit-exact", asymptotics.power_limit_mc,
            self.exact, ALPHA, PermutationPlan(mode="exact"), self.draws, seed,
        )
        bound = ALPHA + 3.0 * max(se, math.sqrt(ALPHA * (1 - ALPHA) / self.draws))
        rec.check(rate <= bound, f"exact 3x3 limit rate {rate} above {bound}")
        rate, se = rec.time(
            "limit-mc", asymptotics.power_limit_mc,
            self.mc, ALPHA, PermutationPlan(count=self.mc_count, seed=seed), self.draws, seed,
        )
        rec.check(0.0 <= rate <= 1.0 and math.isfinite(se), f"MC limit rate {rate} invalid")

    def finish(self, rec: Recorder) -> None:
        pass

    def summary(self, rec: Recorder) -> dict:
        diag = rec.seconds("diagnose")
        limit = [a + b for a, b in zip(rec.seconds("limit-exact"), rec.seconds("limit-mc"))]
        # a round's two limit calls, each in reference times
        limit_ref = [
            a / ra + b / rb
            for a, ra, b, rb in zip(rec.seconds("limit-exact"), rec.refs("limit-exact"),
                                    rec.seconds("limit-mc"), rec.refs("limit-mc"))
        ]
        return {
            "call_time.p50": statistics.median(map(truediv, diag, rec.refs("diagnose"))),
            "work_rate.p50": 2 * self.draws / statistics.median(limit_ref),
            "diagnose_ms.p50": 1e3 * statistics.median(diag),
            "powerlimit_draws_per_s": statistics.median(2 * self.draws / s for s in limit),
            "reports": len(diag),
        }


WORKLOADS = {w.name: w for w in (TestWide, StudyNarrow, DiagnoseLimit)}
