"""Monte Carlo size/power studies and real-data subsampling studies.

One grid runner serves both: a grid point is a picklable sampler (scenario
generation or class subsampling), and every replication of a study goes
through one process pool. Every replication derives its RNG seeds
deterministically from the master seed plus its (grid index, replication
index) coordinates, so results are byte-identical regardless of how many
workers execute them.

Data files, the command line's too, are read by :func:`read_rows`.
"""

from __future__ import annotations

import contextlib
import csv
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .datagen import ScenarioConfig, generate
from .kernels import FAMILIES, KernelSpec
from .permutation import PermutationPlan, decide, plan_masks
from .statistic import LabeledSample, kernel_statistics


def _refuse_shared_labels(labels, what: str) -> None:
    shared = [label for label, k in Counter(labels).items() if k > 1]
    if shared:
        raise ValueError(f"two {what} share the label {shared[0]!r}, which keys their results")


def _check_study(kernels, alpha: float, replications: int, permutations: int,
                 seed: int) -> None:
    """Refuse study arguments before any replication runs, not in a worker."""
    _refuse_shared_labels((s.label for s in kernels), "kernels")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if permutations < 20:
        raise ValueError("need at least 20 permutations")
    if seed < 0:
        raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class StudyConfig:
    scenarios: tuple[ScenarioConfig, ...]
    kernels: tuple[KernelSpec, ...] = tuple(KernelSpec(f) for f in FAMILIES)
    alpha: float = 0.05
    replications: int = 1000
    permutations: int = 300
    seed: int = 0

    def __post_init__(self):
        _check_study(self.kernels, self.alpha, self.replications, self.permutations, self.seed)
        if not self.scenarios:
            raise ValueError("empty scenario grid")


@dataclass(frozen=True)
class RealDataset:
    """Two class-labelled collections of equal-length series."""

    classes: dict

    def __post_init__(self):
        if len(self.classes) < 2:
            raise ValueError("need at least two classes")
        lengths = {arr.shape[1] for arr in self.classes.values()}
        if len(lengths) != 1:
            raise ValueError("all series must share one length")
        for label, arr in self.classes.items():
            if arr.shape[0] < 2:
                raise ValueError(f"class {label!r} has fewer than 2 rows")

    @property
    def p(self) -> int:
        return next(iter(self.classes.values())).shape[1]


@dataclass
class PowerTable:
    rows: list = field(default_factory=list)

    def add(self, scenario: str, kernel: str, rate: float, replications: int, wall: float):
        se = math.sqrt(rate * (1.0 - rate) / replications)
        self.rows.append(
            {
                "scenario": scenario,
                "kernel": kernel,
                "rejection_rate": rate,
                "mc_standard_error": se,
                "replications": replications,
                "wall_time_s": wall,
            }
        )

    def write_csv(self, path) -> None:
        # wall_time_s stays in memory only so identically seeded runs
        # produce byte-identical files regardless of worker count
        fields = [
            "scenario",
            "kernel",
            "rejection_rate",
            "mc_standard_error",
            "replications",
        ]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
            writer.writeheader()
            for row in self.rows:
                out = dict(row)
                out["rejection_rate"] = f"{row['rejection_rate']:.6g}"
                out["mc_standard_error"] = f"{row['mc_standard_error']:.6g}"
                writer.writerow(out)

    def rate(self, scenario: str, kernel: str) -> float:
        for row in self.rows:
            if row["scenario"] == scenario and row["kernel"] == kernel:
                return row["rejection_rate"]
        raise KeyError((scenario, kernel))


def multi_kernel_rejections(
    sample: LabeledSample,
    kernels: tuple[KernelSpec, ...],
    alpha: float,
    permutations: int,
    seed: int,
) -> dict:
    """Each kernel's decision on one dataset, keyed by its label, all
    kernels sharing the same S-1 random permutations."""
    masks, _ = plan_masks(PermutationPlan(count=permutations, seed=seed), sample.n, sample.m)
    _, reject = decide(kernel_statistics(sample, kernels, masks), alpha)
    return {spec.label: bool(r) for spec, r in zip(kernels, reject)}


def _replication_seeds(master: int, grid: int, rep: int) -> tuple[int, int]:
    """Independent (data seed, permutation seed) derived from coordinates."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=(grid, rep))
    data_seed, perm_seed = ss.generate_state(2)
    return int(data_seed), int(perm_seed)


def _rejections(args):
    """Each kernel's decision on one replication of one grid point."""
    sampler, grid_idx, rep, kernels, alpha, permutations, master = args
    data_seed, perm_seed = _replication_seeds(master, grid_idx, rep)
    return multi_kernel_rejections(sampler(data_seed), kernels, alpha, permutations, perm_seed)


def _run_grid(points, kernels, alpha, replications, permutations, master, jobs) -> PowerTable:
    """Rejection rate per (grid point, kernel) for ``points``, a list of
    (label, sampler) pairs where ``sampler(data_seed)`` returns one dataset.

    All replications of all points share one pool, which takes them in
    chunks of ``ceil(replications / jobs)``. A point's wall time runs from
    the previous point's last result to its own.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    _refuse_shared_labels((label for label, _ in points), "grid points")
    tasks = [
        (sampler, grid_idx, rep, kernels, alpha, permutations, master)
        for grid_idx, (_, sampler) in enumerate(points)
        for rep in range(replications)
    ]
    table = PowerTable()
    start = time.perf_counter()
    parallel = jobs > 1 and len(tasks) > 1
    with ProcessPoolExecutor(max_workers=jobs) if parallel else contextlib.nullcontext() as pool:
        results = (pool.map(_rejections, tasks, chunksize=math.ceil(replications / jobs))
                   if parallel else map(_rejections, tasks))
        for label, _ in points:
            counts = Counter()
            for _ in range(replications):
                counts.update(next(results))
            now = time.perf_counter()
            for spec in kernels:
                table.add(label, spec.label, counts[spec.label] / replications,
                          replications, now - start)
            start = now
    return table


def _scenario_sample(cfg: ScenarioConfig, data_seed: int) -> LabeledSample:
    return generate(replace(cfg, seed=data_seed))


def run_power_study(cfg: StudyConfig, jobs: int = 1) -> PowerTable:
    """Rejection rate per (scenario, kernel) over seeded replications."""
    points = [(scen.label, partial(_scenario_sample, scen)) for scen in cfg.scenarios]
    return _run_grid(points, cfg.kernels, cfg.alpha, cfg.replications, cfg.permutations,
                     cfg.seed, jobs)


def run_realdata_study(
    dataset: RealDataset,
    sizes,
    kernels: tuple[KernelSpec, ...] = tuple(KernelSpec(f) for f in FAMILIES),
    alpha: float = 0.05,
    replications: int = 1000,
    permutations: int = 300,
    seed: int = 0,
    labels: tuple | None = None,
    jobs: int = 1,
) -> PowerTable:
    """Subsample n rows per class without replacement, test, repeat.

    ``labels`` picks which two classes to compare (defaults to the first
    two in sorted order); passing the same label twice yields a
    null-by-construction control study.
    """
    _check_study(kernels, alpha, replications, permutations, seed)
    keys = sorted(dataset.classes)
    if labels is None:
        labels = (keys[0], keys[1])
    a, b = dataset.classes[labels[0]], dataset.classes[labels[1]]
    same_class = labels[0] == labels[1]
    # a same-class control draws 2n disjoint rows of one class
    most = min(a.shape[0], b.shape[0]) // (2 if same_class else 1)
    sizes = list(sizes)
    for n in sizes:  # all checked before any replication runs
        if not 2 <= n <= most:
            why = "is below 2" if n < 2 else "exceeds a class size"
            raise ValueError(f"requested n={n} {why}; these classes allow n in 2..{most}")
    points = [
        (f"realdata:{labels[0]}-vs-{labels[1]}:n={n}", partial(_subsample, a, b, n, same_class))
        for n in sizes
    ]
    return _run_grid(points, kernels, alpha, replications, permutations, seed, jobs)


def _subsample(a, b, n: int, same_class: bool, data_seed: int) -> LabeledSample:
    rng = np.random.default_rng(data_seed)
    if same_class:
        # disjoint subsamples from one class keep the null exact
        idx = rng.choice(a.shape[0], size=2 * n, replace=False)
        xa, xb = a[idx[:n]], a[idx[n:]]
    else:
        xa = a[rng.choice(a.shape[0], size=n, replace=False)]
        xb = b[rng.choice(b.shape[0], size=n, replace=False)]
    return LabeledSample(np.vstack([xa, xb]), n, n)


def read_rows(path, delim: str, labelled: bool) -> tuple[list[str], np.ndarray]:
    """``(labels, values)`` of a delimited file of numbers, a row's label being
    its first field when ``labelled``. ``#`` starts a comment and blank lines
    are skipped; a row that is not all finite numbers, or not as wide as the
    first, is refused with its line number."""
    labels, rows = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split("#", 1)[0].strip().split(delim)
            if fields == [""]:
                continue
            where = f"{path}: line {lineno}"
            if labelled:
                if len(fields) < 2:
                    raise ValueError(f"{where}: expected a label plus at least one value")
                labels.append(fields.pop(0))
            try:
                row = np.array(fields, dtype=float)
            except ValueError as exc:
                raise ValueError(f"{where}: non-numeric field ({exc})") from None
            if not np.isfinite(row).all():
                raise ValueError(f"{where}: non-finite value")
            if rows and row.size != rows[0].size:
                raise ValueError(
                    f"{where}: ragged row of length {row.size}, expected {rows[0].size}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return labels, np.array(rows)


def load_delimited(path, fmt: str = "ucr-tsv") -> RealDataset:
    """Parse a class-labelled delimited file.

    ``ucr-tsv``: tab-separated, first field is the class label. ``csv``:
    comma-separated with the same first-field-is-label convention. Both
    are read by :func:`read_rows`, so ``#`` starts a comment.
    """
    if fmt not in ("csv", "ucr-tsv"):
        raise ValueError(f"unknown format {fmt!r}")
    labels, values = read_rows(path, "\t" if fmt == "ucr-tsv" else ",", labelled=True)
    row_labels = np.array(labels)
    return RealDataset(classes={k: values[row_labels == k] for k in dict.fromkeys(labels)})
