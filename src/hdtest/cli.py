"""Command line interface.

Subcommands:
  test        permutation two-sample test on a CSV data file
  gen         write a simulated scenario dataset to CSV
  diagnose    discrepancy measures and moment-constant estimates
  asymptotics tables of f(w), mu_{n,w}, sigma^2_{n,w} and the class pmf
  powerlimit  Monte Carlo limiting-power estimate from variance constants
  power       Monte Carlo power (or size) study from a JSON config; alias size
  realdata    subsampled power study on a class-labelled data file
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from . import asymptotics, datagen, diagnostics, harness
from .kernels import FAMILIES, KernelSpec
from .permutation import PermutationPlan, permutation_test
from .statistic import LabeledSample


def _kernel_arg(parser):
    parser.add_argument("--kernel", choices=FAMILIES, default="l2")
    parser.add_argument("--gamma", type=float, default=1.0, help="bandwidth for gaussian/laplacian")


def _load_sample(path: str, n: int) -> LabeledSample:
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        # loadtxt skips lines that are blank once a "#" comment is cut off
        with open(path) as fh:
            lines = [i for i, line in enumerate(fh, start=1) if line.split("#", 1)[0].strip()]
        raise SystemExit(f"{path}: line {lines[np.argmin(finite)]}: non-finite value")
    if not 2 <= n <= data.shape[0] - 2:
        raise SystemExit(f"--n must leave at least 2 rows in each group (got n={n}, "
                         f"{data.shape[0]} rows)")
    return LabeledSample(data, n, data.shape[0] - n)


def _plan_args(parser):
    parser.add_argument("--perms", type=int, default=300, metavar="S")
    parser.add_argument("--exact", action="store_true", help="enumerate all permutations")
    parser.add_argument("--seed", type=int, default=0)


def _plan(args) -> PermutationPlan:
    if args.exact:
        return PermutationPlan(mode="exact", seed=args.seed)
    return PermutationPlan(mode="monte-carlo", count=args.perms, seed=args.seed)


def _scenario_from_args(args) -> datagen.ScenarioConfig:
    # every field has a flag of the same name
    return datagen.ScenarioConfig(
        **{f.name: getattr(args, f.name) for f in fields(datagen.ScenarioConfig)}
    )


def _cmd_test(args):
    sample = _load_sample(args.data, args.n)
    spec = KernelSpec(args.kernel, args.gamma)
    result = permutation_test(sample, spec, alpha=args.alpha, plan=_plan(args))
    print(f"{result.statistic:.10g},{result.critical_value:.10g},"
          f"{result.p_value:.10g},{str(result.reject).lower()}")


def _cmd_gen(args):
    if args.config:
        with open(args.config) as fh:
            cfg = datagen.ScenarioConfig(**json.load(fh))
    else:
        cfg = _scenario_from_args(args)
    sample = datagen.generate(cfg)
    np.savetxt(args.out, sample.data, delimiter=",", fmt="%.17g")
    print(f"wrote {sample.n + sample.m} rows x {sample.p} cols to {args.out}")


def _cmd_diagnose(args):
    sample = _load_sample(args.data, args.n)
    report, c = diagnostics.diagnose(sample, KernelSpec(args.kernel, args.gamma), args.seed)
    print("measure,value")
    for name in ("mean_gap", "var_gap", "marginal_ed_sum", "cov_gap"):
        print(f"{name},{getattr(report, name):.10g}")
    print(f"regime_hint,{report.regime_hint}")
    if c is not None:
        for name in ("e_x", "e_y", "e_xy", "v_x", "v_y", "v_xy"):
            print(f"{name},{getattr(c, name):.10g}")


def _cmd_asymptotics(args):
    spec = KernelSpec(args.kernel, args.gamma)
    n, m = args.n, args.m
    c = asymptotics.MomentConstants(
        e_x=args.e_x, e_y=args.e_y, e_xy=args.e_xy,
        v_x=args.v_x, v_y=args.v_y, v_xy=args.v_xy,
    )
    law = asymptotics.HypergeometricLaw(n, m)
    rows = [
        (w, asymptotics.f_w(n, m, w), asymptotics.mu_nw(n, m, w, c, spec),
         asymptotics.sigma2_nw(n, m, w, c, spec), float(asymptotics.hypergeom_pmf(law, w)))
        for w in law.support
    ]
    print("w,f_w,mu_nw,sigma2_nw,pmf")
    for w, *values in rows:
        print(f"{w}," + ",".join(f"{v:.10g}" for v in values))


def _cmd_powerlimit(args):
    gp = asymptotics.GaussianProcessSpec(
        n=args.n, m=args.m, v_xy=args.v_xy, v_x=args.v_x, v_y=args.v_y
    )
    rate, se = asymptotics.power_limit_mc(gp, args.alpha, _plan(args), args.draws, seed=args.seed)
    print(f"power_limit,{rate:.6g},se,{se:.6g}")


def _study_from_json(path: str) -> harness.StudyConfig:
    with open(path) as fh:
        raw = json.load(fh)
    scenarios = tuple(datagen.ScenarioConfig(**s) for s in raw["scenarios"])
    kernels = tuple(
        KernelSpec(k["family"], k.get("gamma", 1.0)) if isinstance(k, dict) else KernelSpec(k)
        for k in raw.get("kernels", list(FAMILIES))
    )
    return harness.StudyConfig(
        scenarios=scenarios,
        kernels=kernels,
        alpha=raw.get("alpha", 0.05),
        replications=raw.get("replications", 1000),
        permutations=raw.get("permutations", 300),
        seed=raw.get("seed", 0),
    )


def _cmd_power(args):
    cfg = _study_from_json(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    table = harness.run_power_study(cfg, jobs=args.jobs)
    table.write_csv(args.out)
    print(f"wrote {len(table.rows)} rows to {args.out}")


def _cmd_realdata(args):
    dataset = harness.load_delimited(args.file, args.format)
    sizes = [int(s) for s in args.sizes.split(",")]
    kernels = tuple(KernelSpec(f, args.gamma) for f in FAMILIES)
    table = harness.run_realdata_study(
        dataset,
        sizes,
        kernels=kernels,
        alpha=args.alpha,
        replications=args.replications,
        permutations=args.perms,
        seed=args.seed,
        jobs=args.jobs,
    )
    table.write_csv(args.out)
    print(f"wrote {len(table.rows)} rows to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hdtest",
                                     description="interpoint-distance two-sample tests")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="permutation test on CSV data")
    p_test.add_argument("data", help="CSV file, one observation per row")
    p_test.add_argument("--n", type=int, required=True, help="rows in the first group")
    _kernel_arg(p_test)
    p_test.add_argument("--alpha", type=float, default=0.05)
    _plan_args(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_gen = sub.add_parser("gen", help="generate a scenario dataset")
    p_gen.add_argument("--config", help="JSON scenario config (overrides flags)")
    p_gen.add_argument("--example", choices=datagen.EXAMPLES, default="1")
    p_gen.add_argument("--p", type=int, default=100)
    p_gen.add_argument("--n", type=int, default=50)
    p_gen.add_argument("--m", type=int, default=50)
    p_gen.add_argument("--rho", type=float, default=0.5)
    p_gen.add_argument("--beta", type=float, default=0.0)
    p_gen.add_argument("--innovation", choices=("normal", "exponential"), default="normal")
    p_gen.add_argument("--v-diag", dest="v_diag", choices=("ones", "uniform"), default="ones")
    p_gen.add_argument("--v-seed", dest="v_seed", type=int, default=0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="sample.csv")
    p_gen.set_defaults(func=_cmd_gen)

    p_diag = sub.add_parser("diagnose", help="discrepancy report")
    p_diag.add_argument("data")
    p_diag.add_argument("--n", type=int, required=True)
    _kernel_arg(p_diag)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_asy = sub.add_parser("asymptotics", help="limit-formula tables")
    p_asy.add_argument("--n", type=int, required=True)
    p_asy.add_argument("--m", type=int, required=True)
    _kernel_arg(p_asy)
    for name in ("e-x", "e-y", "e-xy", "v-x", "v-y", "v-xy"):
        p_asy.add_argument(f"--{name}", type=float, default=1.0)
    p_asy.set_defaults(func=_cmd_asymptotics)

    p_pl = sub.add_parser("powerlimit", help="Monte Carlo limiting power")
    p_pl.add_argument("--n", type=int, required=True)
    p_pl.add_argument("--m", type=int, required=True)
    for name in ("v-x", "v-y", "v-xy"):
        p_pl.add_argument(f"--{name}", type=float, default=1.0)
    p_pl.add_argument("--alpha", type=float, default=0.05)
    p_pl.add_argument("--draws", type=int, default=20000)
    _plan_args(p_pl)
    p_pl.set_defaults(func=_cmd_powerlimit)

    p_study = sub.add_parser("power", aliases=["size"],
                             help="power (or size) study from JSON config")
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--seed", type=int, default=None)
    p_study.add_argument("--jobs", type=int, default=1)
    p_study.add_argument("--out", default="power_table.csv")
    p_study.set_defaults(func=_cmd_power)

    p_rd = sub.add_parser("realdata", help="subsampled real-data power study")
    p_rd.add_argument("--file", required=True)
    p_rd.add_argument("--format", choices=("csv", "ucr-tsv"), default="ucr-tsv")
    p_rd.add_argument("--sizes", default="10,20,30,40,50,60")
    p_rd.add_argument("--gamma", type=float, default=1.0)
    p_rd.add_argument("--alpha", type=float, default=0.05)
    p_rd.add_argument("--replications", type=int, default=1000)
    p_rd.add_argument("--perms", type=int, default=300)
    p_rd.add_argument("--seed", type=int, default=0)
    p_rd.add_argument("--jobs", type=int, default=1)
    p_rd.add_argument("--out", default="realdata_table.csv")
    p_rd.set_defaults(func=_cmd_realdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValueError as err:
        # bad arguments and bad data end in one line, not a traceback
        raise SystemExit(f"hdtest {args.command}: {err}") from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
