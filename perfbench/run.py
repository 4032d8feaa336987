"""hdtest benchmark: test latency, study throughput, diagnostics and limit
Monte Carlo, end to end and layer by layer.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload test-wide --seed 1 --seconds 36 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``test-wide``,
``study-narrow`` and ``diagnose-limit``. With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced rounds with
rounds in which every public function of the measured modules records a
span, and reports the per-layer metrics, the tracing overhead and coverage.

Stdout holds a readable report, a ``record`` line with the run's
environment and every figure, and as its last line the result object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is not 0
when the hdtest sources are missing or a run fails.
"""

import os
import sys
import time

START = time.perf_counter()
# pin BLAS to one thread before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per run, the first in this process and the rest in fresh ones
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "call_time.p50": "ref",
    "work_rate.p50": "1/ref",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "statistic.psibar_matrix.ms": "ms",
    "statistic.psibar_matrix.calls": "count",
    "statistic.psibar_matrix.gflop": "GFLOP",
    "statistic.masked_statistics.ms": "ms",
    "statistic.masked_statistics.calls": "count",
    "statistic.masked_statistics.rows": "count",
    "statistic.masked_statistics.gflop": "GFLOP",
    "statistic.kernel_matrix_from_psibar.ms": "ms",
    "statistic.fsum_max_rel_err": "ratio",
    "permutation.sample_masks.ms": "ms",
    "permutation.sample_masks.masks": "count",
    "permutation.permutation_test.self_ms": "ms",
    "permutation.critical_value.ms": "ms",
    "harness.multi_kernel_rejections.self_ms": "ms",
    "harness.pools_created": "count",
    "harness.parallel_efficiency": "ratio",
    "datagen.generate.ms": "ms",
    "datagen.spd_sqrt.ms": "ms",
    "datagen.spd_sqrt.calls": "count",
    "diagnostics.marginal_energy_sum.ms": "ms",
    "diagnostics.marginal_energy_sum.calls": "count",
    "diagnostics.cov_gap.ms": "ms",
    "diagnostics.mean_variance_gaps.ms": "ms",
    "diagnostics.estimate_moment_constants.ms": "ms",
    "diagnostics.discrepancy_report.self_ms": "ms",
    "asymptotics.power_limit_mc.self_ms": "ms",
    "asymptotics.masked_calls_per_draw": "count",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
    "error_rate": "ratio",
}

#: units of the unbounded wall-time figures in the readable report
WALL_UNITS = {
    "test_ms.p50": "ms",
    "test_ms.p90": "ms",
    "study_ms.jobs1": "ms",
    "study_reps_per_s.jobs1": "1/s",
    "study_reps_per_s.jobs2": "1/s",
    "diagnose_ms.p50": "ms",
    "powerlimit_draws_per_s": "1/s",
    "ref_ms.p50": "ms",
    "setup_s.samples": "s",
}

#: figures a workload reports under the names users know them by
ALIASES = {
    "test-wide": {"call_time.p50": "test time", "work_rate.p50": "tests"},
    "study-narrow": {"call_time.p50": "jobs=1 study time", "work_rate.p50": "jobs=2 study reps"},
    "diagnose-limit": {"call_time.p50": "diagnose time", "work_rate.p50": "power-limit draws"},
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(ALIASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help="print one set-up time and exit")
    return ap.parse_args(argv)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_rounds(workload, recorders, seconds: float, package) -> None:
    """Run rounds until ``seconds`` have passed, the recorders taking turns in
    blocks of four rounds, so that each sees every kernel and every dataset.
    A recorder with a tracer has it installed for its rounds: traced and
    untraced rounds interleave and see the same machine state."""
    i = 0
    deadline = time.perf_counter() + seconds
    while i < 4 * len(recorders) or time.perf_counter() < deadline:
        rec = recorders[i // 4 % len(recorders)]
        rec.round = i
        if rec.tracer:
            rec.tracer.install(package)
        try:
            workload.round(i, rec)
        finally:
            if rec.tracer:
                rec.tracer.uninstall()
        i += 1


def child_setups(args, count: int) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.exit(f"set-up run failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def layer_metrics(spans, rec, setup_end: int) -> dict:
    """Per-layer figures per traced round, from the spans of timed calls."""
    from tracing import self_times

    own = self_times(spans)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    size = defaultdict(float)
    flops = defaultdict(float)
    calls = Counter()
    per_round = defaultdict(Counter)
    covered = 0.0
    masked_in_limit = 0
    for kind, seconds, ref, rnd, first, end in rec.ops:
        for idx in range(first, end):
            name, start, stop, parent, sz, fl = spans[idx]
            incl[name] += stop - start
            self_s[name] += own[idx]
            size[name] += sz
            flops[name] += fl
            calls[name] += 1
            per_round[rnd][name] += 1
            if parent >= 0 and spans[parent][3] < 0:
                covered += stop - start
            if name == "statistic.masked_statistics" and parent >= 0 \
                    and spans[parent][0] == "asymptotics.power_limit_mc":
                masked_in_limit += 1
    rounds = len(per_round)
    counts = list(per_round.values())
    rec.check(all(c == counts[0] for c in counts), "span counts differ between rounds")

    def ms(table, name):
        return 1e3 * table[name] / rounds

    setup_sqrt = [s for s in spans[:setup_end] if s[0] == "datagen.spd_sqrt"]
    draws = size["asymptotics.power_limit_mc"]
    return {
        "statistic.psibar_matrix.ms": ms(incl, "statistic.psibar_matrix"),
        "statistic.psibar_matrix.calls": calls["statistic.psibar_matrix"] / rounds,
        "statistic.psibar_matrix.gflop": flops["statistic.psibar_matrix"] / rounds / 1e9,
        "statistic.masked_statistics.ms": ms(incl, "statistic.masked_statistics"),
        "statistic.masked_statistics.calls": calls["statistic.masked_statistics"] / rounds,
        "statistic.masked_statistics.rows": size["statistic.masked_statistics"] / rounds,
        "statistic.masked_statistics.gflop": flops["statistic.masked_statistics"] / rounds / 1e9,
        "statistic.kernel_matrix_from_psibar.ms": ms(incl, "statistic.kernel_matrix_from_psibar"),
        "permutation.sample_masks.ms": ms(incl, "permutation.sample_masks"),
        "permutation.sample_masks.masks": size["permutation.sample_masks"] / rounds,
        "permutation.permutation_test.self_ms": ms(self_s, "permutation.permutation_test"),
        "permutation.critical_value.ms": ms(incl, "permutation.critical_value"),
        "harness.multi_kernel_rejections.self_ms": ms(self_s, "harness.multi_kernel_rejections"),
        "datagen.generate.ms": ms(incl, "datagen.generate"),
        "datagen.spd_sqrt.ms": 1e3 * sum(s[2] - s[1] for s in setup_sqrt),
        "datagen.spd_sqrt.calls": len(setup_sqrt),
        "diagnostics.marginal_energy_sum.ms": ms(incl, "diagnostics.marginal_energy_sum"),
        "diagnostics.marginal_energy_sum.calls": calls["diagnostics.marginal_energy_sum"] / rounds,
        "diagnostics.cov_gap.ms": ms(incl, "diagnostics.cov_gap"),
        "diagnostics.mean_variance_gaps.ms": ms(incl, "diagnostics.mean_variance_gaps"),
        "diagnostics.estimate_moment_constants.ms":
            ms(incl, "diagnostics.estimate_moment_constants"),
        "diagnostics.discrepancy_report.self_ms": ms(self_s, "diagnostics.discrepancy_report"),
        "asymptotics.power_limit_mc.self_ms": ms(self_s, "asymptotics.power_limit_mc"),
        "asymptotics.masked_calls_per_draw": masked_in_limit / draws if draws else 0.0,
        "trace.coverage": covered / sum(op[1] for op in rec.ops),
    }


def overhead_pct(plain, traced, kinds) -> float:
    """Traced minus untraced median call time, summed over the call kinds
    both sets of rounds ran, as a percentage of the untraced time."""
    both = [k for k in kinds if plain.seconds(k) and traced.seconds(k)]
    t = sum(statistics.median(traced.seconds(k)) for k in both)
    u = sum(statistics.median(plain.seconds(k)) for k in both)
    return 100.0 * (t - u) / u


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hdtest" / "__init__.py").is_file():
        sys.exit(f"no hdtest sources under {SRC}; run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import hdtest
    from tracing import Tracer
    from workloads import WORKLOADS, Recorder

    if Path(hdtest.__file__).resolve().parent != SRC / "hdtest":
        sys.exit(f"imported hdtest from {hdtest.__file__}, not from {SRC}")

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(hdtest)  # spans of the set-up give the square-root cache fill
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny)
        workload.warm_up()
    finally:
        if tracer:
            tracer.uninstall()
    setup = time.perf_counter() - START
    if args.setup_only:
        print(setup)
        return 0

    plain = Recorder()
    if not args.trace:
        run_rounds(workload, (plain,), args.seconds, hdtest)
        workload.finish(plain)
        summary = workload.summary(plain)
        setups = [setup] + child_setups(args, (2 if args.tiny else SETUPS) - 1)
        summary["setup_s"] = statistics.median(setups)
        summary["setup_s.samples"] = setups
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        recorders = (plain,)
        wanted = END_TO_END
    else:
        setup_end = len(tracer.spans)
        traced = Recorder(tracer)
        run_rounds(workload, (plain, traced), args.seconds, hdtest)
        workload.finish(plain)
        summary = workload.summary(plain)
        summary.update(layer_metrics(tracer.spans, traced, setup_end))
        summary["trace.overhead_pct"] = overhead_pct(plain, traced, workload.kinds)
        recorders = (plain, traced)
        wanted = PER_LAYER

    summary["ref_ms.p50"] = 1e3 * statistics.median(op[2] for op in plain.ops)
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    summary["error_rate"] = failed / attempted

    aliases = ALIASES[args.workload]
    print(f"hdtest benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    # a layer the workload does not reach reports 0
    metrics = {name: summary.get(name, 0.0) if wanted is PER_LAYER else summary[name]
               for name in wanted}
    for name, unit in wanted.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:42s} {metrics[name]:>14.6g} {unit}{alias}")
    for name, value in summary.items():
        if name not in wanted and name not in END_TO_END and name not in PER_LAYER:
            print(f"  {name:42s} {value} {WALL_UNITS.get(name, '')}".rstrip())
    if "error_rate" not in wanted:
        print(f"  {'error_rate':42s} {summary['error_rate']:>14.6g} ratio")
    env = environment(args)
    samples = {k: [op[1] for r in recorders for op in r.ops if op[0] == k] for k in workload.kinds}
    refs = {k: [op[2] for r in recorders for op in r.ops if op[0] == k] for k in workload.kinds}
    print("record " + json.dumps({"environment": env, "figures": summary,
                                  "call_seconds": samples, "ref_seconds": refs}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
