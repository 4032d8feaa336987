"""High-dimensional two-sample testing with interpoint-distance statistics."""

from .asymptotics import (
    GaussianProcessSpec,
    MomentConstants,
    f_w,
    hypergeom_pmf,
    mean_gap,
    mixture_normal_cdf,
    mu_nw,
    power_limit_mc,
    sigma2_hdmss,
    sigma2_nw,
)
from .datagen import ScenarioConfig, generate
from .diagnostics import (
    DiscrepancyReport,
    discrepancy_report,
    estimate_moment_constants,
)
from .kernels import FAMILIES, KernelSpec, phi, phi_prime
from .permutation import PermutationPlan, TestResult, permutation_test
from .statistic import KernelMatrix, LabeledSample, build_kernel_matrix, ed_statistic
from .harness import (
    PowerTable,
    RealDataset,
    StudyConfig,
    load_delimited,
    run_power_study,
    run_realdata_study,
)

__all__ = [
    "FAMILIES",
    "DiscrepancyReport",
    "GaussianProcessSpec",
    "KernelMatrix",
    "KernelSpec",
    "LabeledSample",
    "MomentConstants",
    "PermutationPlan",
    "PowerTable",
    "RealDataset",
    "ScenarioConfig",
    "StudyConfig",
    "TestResult",
    "build_kernel_matrix",
    "discrepancy_report",
    "ed_statistic",
    "estimate_moment_constants",
    "f_w",
    "generate",
    "hypergeom_pmf",
    "load_delimited",
    "mean_gap",
    "mixture_normal_cdf",
    "mu_nw",
    "permutation_test",
    "phi",
    "phi_prime",
    "power_limit_mc",
    "run_power_study",
    "run_realdata_study",
    "sigma2_hdmss",
    "sigma2_nw",
]

__version__ = "0.1.0"
