"""Command line interface.

Subcommands:
  test        permutation two-sample test on a CSV data file
  gen         write a simulated scenario dataset to CSV
  diagnose    discrepancy measures and moment-constant estimates
  asymptotics tables of f(w), mu_{n,w}, sigma^2_{n,w} and the class pmf
  powerlimit  Monte Carlo limiting-power estimate from variance constants
  power       Monte Carlo power (or size) study from a JSON config; alias size
  realdata    subsampled power study on a class-labelled data file

JSON configs and flags are built into the package's own types, which refuse
an unknown key and default a missing one; data files are read by
:func:`harness.read_rows`. Bad input ends in one ``hdtest <command>:`` line.
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
    parser.add_argument("--kernel", dest="family", choices=FAMILIES, default="l2")
    parser.add_argument("--gamma", type=float, default=argparse.SUPPRESS,
                        help="bandwidth for gaussian/laplacian")


def _from_args(cls, args, **fixed):
    """``cls`` from ``fixed`` and the flags named after its other fields; a
    ``SUPPRESS``-default flag left out takes the field's default."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given}, **fixed)


def _read_json(path: str, build):
    """``build`` of the JSON document at ``path``. A syntax error, or an
    unknown or missing key (a TypeError that names it), names the file."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return build(json.load(fh))
        except (json.JSONDecodeError, TypeError) as err:
            raise ValueError(f"{path}: {err}") from None


def _load_sample(path: str, n: int) -> LabeledSample:
    _, data = harness.read_rows(path, ",", labelled=False)
    return LabeledSample(data, n, data.shape[0] - n)


def _plan_args(parser):
    parser.add_argument("--perms", type=int, default=300, metavar="S")
    parser.add_argument("--exact", action="store_true", help="enumerate all permutations")
    parser.add_argument("--seed", type=int, default=0)


def _plan(args) -> PermutationPlan:
    if args.exact:
        return PermutationPlan(mode="exact", seed=args.seed)
    return PermutationPlan(mode="monte-carlo", count=args.perms, seed=args.seed)


def _cmd_test(args):
    sample = _load_sample(args.data, args.n)
    spec = _from_args(KernelSpec, args)
    result = permutation_test(sample, spec, alpha=args.alpha, plan=_plan(args))
    print(f"{result.statistic:.10g},{result.critical_value:.10g},"
          f"{result.p_value:.10g},{str(result.reject).lower()}")


def _cmd_gen(args):
    if args.config:
        cfg = _read_json(args.config, lambda raw: datagen.ScenarioConfig(**raw))
    else:
        cfg = _from_args(datagen.ScenarioConfig, args)
    sample = datagen.generate(cfg)
    np.savetxt(args.out, sample.data, delimiter=",", fmt="%.17g")
    print(f"wrote {sample.n + sample.m} rows x {sample.p} cols to {args.out}")


def _cmd_diagnose(args):
    sample = _load_sample(args.data, args.n)
    report, c = diagnostics.diagnose(sample, _from_args(KernelSpec, args), args.seed)
    print("measure,value")
    for part in (report, c) if c is not None else (report,):
        for f in fields(part):
            value = getattr(part, f.name)
            print(f"{f.name},{value}" if isinstance(value, str) else f"{f.name},{value:.10g}")


def _cmd_asymptotics(args):
    spec = _from_args(KernelSpec, args)
    n, m = args.n, args.m
    c = _from_args(asymptotics.MomentConstants, args)
    rows = [
        (w, asymptotics.f_w(n, m, w), asymptotics.mu_nw(n, m, w, c, spec),
         asymptotics.sigma2_nw(n, m, w, c, spec), float(asymptotics.hypergeom_pmf(n, m, w)))
        for w in range(min(n, m) + 1)
    ]
    print("w,f_w,mu_nw,sigma2_nw,pmf")
    for w, *values in rows:
        print(f"{w}," + ",".join(f"{v:.10g}" for v in values))


def _cmd_powerlimit(args):
    gp = _from_args(asymptotics.GaussianProcessSpec, args)
    rate, se = asymptotics.power_limit_mc(gp, args.alpha, _plan(args), args.draws, seed=args.seed)
    print(f"power_limit,{rate:.6g},se,{se:.6g}")


def _study_from_json(raw) -> harness.StudyConfig:
    raw = {**raw}  # a TypeError unless the document is an object
    # a missing grid is left to StudyConfig's own check
    raw["scenarios"] = tuple(datagen.ScenarioConfig(**s) for s in raw.get("scenarios", ()))
    if "kernels" in raw:
        raw["kernels"] = tuple(KernelSpec(**k) if isinstance(k, dict) else KernelSpec(k)
                               for k in raw["kernels"])
    return harness.StudyConfig(**raw)


def _cmd_power(args):
    cfg = _read_json(args.config, _study_from_json)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    table = harness.run_power_study(cfg, jobs=args.jobs)
    table.write_csv(args.out)
    print(f"wrote {len(table.rows)} rows to {args.out}")


def _sizes(text: str) -> list[int]:
    sizes = []
    for field in text.split(","):
        try:
            sizes.append(int(field))
        except ValueError:
            raise ValueError(f"--sizes: {field!r} is not an integer") from None
    return sizes


def _cmd_realdata(args):
    sizes = _sizes(args.sizes)
    dataset = harness.load_delimited(args.file, args.format)
    kernels = tuple(_from_args(KernelSpec, args, family=f) for f in FAMILIES)
    table = harness.run_realdata_study(
        dataset, sizes, kernels=kernels, alpha=args.alpha, replications=args.replications,
        permutations=args.perms, seed=args.seed, jobs=args.jobs)
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

    # a ScenarioConfig flag left out takes the field's default
    p_gen = sub.add_parser("gen", help="generate a scenario dataset",
                           argument_default=argparse.SUPPRESS)
    p_gen.add_argument("--config", default=None, help="JSON scenario config (overrides flags)")
    p_gen.add_argument("--example", choices=datagen.EXAMPLES, default="1")
    p_gen.add_argument("--p", type=int, default=100)
    p_gen.add_argument("--n", type=int, default=50)
    p_gen.add_argument("--m", type=int, default=50)
    p_gen.add_argument("--rho", type=float)
    p_gen.add_argument("--beta", type=float)
    p_gen.add_argument("--innovation", choices=("normal", "exponential"))
    p_gen.add_argument("--v-diag", choices=("ones", "uniform"))
    p_gen.add_argument("--v-seed", type=int)
    p_gen.add_argument("--seed", type=int)
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
    for f in fields(asymptotics.MomentConstants):
        p_asy.add_argument(f"--{f.name.replace('_', '-')}", type=float, default=1.0)
    p_asy.set_defaults(func=_cmd_asymptotics)

    p_pl = sub.add_parser("powerlimit", help="Monte Carlo limiting power")
    p_pl.add_argument("--n", type=int, required=True)
    p_pl.add_argument("--m", type=int, required=True)
    for f in fields(asymptotics.GaussianProcessSpec):
        if f.name.startswith("v_"):
            p_pl.add_argument(f"--{f.name.replace('_', '-')}", type=float, default=1.0)
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
    p_rd.add_argument("--gamma", type=float, default=argparse.SUPPRESS)
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
    except (OSError, ValueError) as err:
        # bad arguments, bad data and unreadable files end in one line,
        # not a traceback
        raise SystemExit(f"hdtest {args.command}: {err}") from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
