"""The package's one boundary contract, generated from its public dataclasses.

Every dataclass in ``hdtest.__all__`` is an input, whose fields are checked
against their annotations when it is built, or an output listed in
:data:`EXEMPT`. Each field of an input gets the same corpus of bad or
borderline values: each must be accepted, or refused with a one-line
``TypeError`` or ``ValueError`` whose message names the field. Each argument
of the package's own types that an entry point of :data:`ARGUMENTS` takes is
refused by name when it holds another type, and so is each integer or real
argument of a limit formula of :data:`NUMBERS` that holds no such number.
"""

import dataclasses
import math
import re
import typing

import numpy as np
import pytest

import hdtest
from hdtest import (GaussianProcessSpec, KernelSpec, LabeledSample, MomentConstants,
                    PermutationPlan, RealDataset, ScenarioConfig, StudyConfig,
                    discrepancy_report, estimate_moment_constants, permutation_test,
                    power_limit_mc)
from hdtest.asymptotics import (f_w, hypergeom_pmf, mean_gap, mixture_normal_cdf, mu_nw,
                                sigma2_hdmss, sigma2_nw)
from hdtest.diagnostics import diagnose
from hdtest.harness import multi_kernel_rejections
from hdtest.kernels import phi, phi_prime
from hdtest.statistic import build_kernel_matrix, kernel_matrix_stack

#: public dataclasses the package builds as results, never from user input
EXEMPT = {"TestResult", "DiscrepancyReport", "KernelMatrix", "PowerTable"}

#: one valid instance's arguments per input dataclass
VALID = {
    KernelSpec: dict(family="gaussian", gamma=1.0),
    ScenarioConfig: dict(example="1", p=3, n=2, m=2),
    LabeledSample: dict(data=np.zeros((4, 2)), n=2, m=2),
    PermutationPlan: dict(mode="monte-carlo", count=30, seed=0),
    MomentConstants: dict(e_x=1.0, e_y=1.0, e_xy=1.0, v_x=1.0, v_y=1.0, v_xy=1.0),
    GaussianProcessSpec: dict(n=3, m=3, v_xy=1.0, v_x=1.0, v_y=1.0),
    StudyConfig: dict(scenarios=(ScenarioConfig("1", p=3, n=2, m=2),)),
    RealDataset: dict(classes={"a": np.zeros((2, 2)), "b": np.ones((2, 2))}),
}

#: a bool, a string, None, non-finite and complex numbers, a float for an
#: int, numpy scalars and an integer beyond the float range, by label
CORPUS = {"True": True, '"1"': "1", "None": None, "nan": math.nan, "inf": math.inf,
          "1+0j": 1 + 0j, "2.0": 2.0, "np.float64(2.0)": np.float64(2.0),
          "np.int64(2)": np.int64(2), "10**400": 10**400}

#: the numpy scalars of the corpus and the plain values they must behave as
PLAIN = {"np.float64(2.0)": 2.0, "np.int64(2)": 2}

#: a bare member of each kind of container field
MEMBERS = {StudyConfig: {"scenarios": VALID[StudyConfig]["scenarios"][0],
                         "kernels": KernelSpec("l2")},
           RealDataset: {"classes": np.zeros((2, 2))},
           LabeledSample: {"data": np.zeros(2)}}


def _public_dataclasses():
    return [obj for name in hdtest.__all__
            if dataclasses.is_dataclass(obj := getattr(hdtest, name))]


def _corpus(cls, name: str) -> dict:
    """The values the field ``name`` of ``cls`` gets, keyed by a label."""
    values = dict(CORPUS)
    if name in MEMBERS.get(cls, {}):
        values["a bare member"] = MEMBERS[cls][name]
        values["a list holding a dict"] = [{}]
    if typing.get_type_hints(cls)[name] is np.ndarray:
        # every corpus value as the entries of a matrix of the valid shape
        values.update({f"entries {label}": [[v] * 2] * 4 for label, v in CORPUS.items()})
        values["ragged rows"] = [[1.0, 2.0], [1.0]] * 2
    return values


def _outcome(cls, name: str, value):
    """None if ``cls`` accepts ``value`` as ``name``, else the refusal."""
    try:
        cls(**{**VALID[cls], name: value})
    except (TypeError, ValueError) as err:
        return err
    return None


def test_every_public_dataclass_is_an_input_or_exempt():
    names = {cls.__name__ for cls in _public_dataclasses()}
    assert EXEMPT <= names
    assert names - EXEMPT == {cls.__name__ for cls in VALID}
    for cls in VALID:
        cls(**VALID[cls])


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in _public_dataclasses() if cls.__name__ not in EXEMPT
    for f in dataclasses.fields(cls)
])
def test_field_accepts_or_refuses_by_name(cls, name):
    assert cls in VALID, f"{cls.__name__} is neither an input with a valid instance nor exempt"
    outcomes = {}
    for label, value in _corpus(cls, name).items():
        err = outcomes[label] = _outcome(cls, name, value)
        if err is not None:
            message = str(err)
            assert "\n" not in message, (label, message)
            assert re.search(rf"\b{name}\b", message), (label, message)
    for label, plain in PLAIN.items():
        numpy_err, plain_err = outcomes[label], _outcome(cls, name, plain)
        assert type(numpy_err) is type(plain_err), (label, numpy_err, plain_err)


_SAMPLE = LabeledSample(np.arange(24.0).reshape(8, 3) % 5, 4, 4)
_CONSTANTS = MomentConstants(**VALID[MomentConstants])

#: valid arguments of each entry point that takes arguments of the package's types
ARGUMENTS = {
    permutation_test: dict(sample=_SAMPLE, spec=KernelSpec("l2"), plan=PermutationPlan(count=30)),
    multi_kernel_rejections: dict(sample=_SAMPLE, kernels=(KernelSpec("l1"),), alpha=0.05,
                                  permutations=30, seed=0),
    discrepancy_report: dict(sample=_SAMPLE),
    estimate_moment_constants: dict(sample=_SAMPLE, spec=KernelSpec("l1")),
    diagnose: dict(sample=_SAMPLE, spec=KernelSpec("l1")),
    power_limit_mc: dict(gp=GaussianProcessSpec(3, 3, 1.0, 1.0, 1.0), alpha=0.05,
                         plan=PermutationPlan(mode="exact"), draws=1000),
    mean_gap: dict(c=_CONSTANTS, spec=KernelSpec("l2")),
    mu_nw: dict(n=3, m=3, w=1, c=_CONSTANTS, spec=KernelSpec("l2")),
    sigma2_nw: dict(n=3, m=3, w=1, c=_CONSTANTS, spec=KernelSpec("l2")),
    sigma2_hdmss: dict(rho=1.0, c=_CONSTANTS, spec=KernelSpec("l1")),
    mixture_normal_cdf: dict(a=0.0, n=3, m=3, c=_CONSTANTS, spec=KernelSpec("gaussian")),
    phi: dict(spec=KernelSpec("l2"), t=1.0),
    phi_prime: dict(spec=KernelSpec("laplacian"), t=1.0),
    build_kernel_matrix: dict(sample=_SAMPLE, spec=KernelSpec("l2")),
    kernel_matrix_stack: dict(sample=_SAMPLE, kernels=(KernelSpec("l1"), KernelSpec("l2"))),
}

#: values of another type than any argument of the package's types, by label
WRONG = {"None": None, '"l2"': "l2", "an ndarray": _SAMPLE.data, "a dict": {"l2": 1}}


def _package_type(hint):
    """The package class ``hint`` names, alone, in a tuple or with None; else None."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple or len(args) == 1:
        hint = args[0]
    return hint if getattr(hint, "__module__", "").startswith("hdtest.") else None


def _package_arguments(fn) -> list:
    return [name for name, hint in typing.get_type_hints(fn).items()
            if name != "return" and _package_type(hint)]


def test_every_entry_point_takes_a_package_type():
    for fn, arguments in ARGUMENTS.items():
        assert _package_arguments(fn), fn.__name__
        fn(**arguments)


@pytest.mark.parametrize("fn, name", [
    pytest.param(fn, name, id=f"{fn.__name__}.{name}")
    for fn in ARGUMENTS for name in _package_arguments(fn)
])
def test_argument_of_a_package_type_is_refused_by_name(fn, name):
    optional = type(None) in typing.get_args(typing.get_type_hints(fn)[name])
    for label, value in WRONG.items():
        if value is None and optional:
            continue
        with pytest.raises(TypeError, match=rf"^{name} must ") as err:
            fn(**{**ARGUMENTS[fn], name: value})
        assert "\n" not in str(err.value), label


#: valid arguments of each limit formula that takes integer or real arguments
NUMBERS = {
    f_w: dict(n=3, m=3, w=1),
    hypergeom_pmf: dict(n=3, m=3, w=1),
    mu_nw: ARGUMENTS[mu_nw],
    sigma2_nw: ARGUMENTS[sigma2_nw],
    sigma2_hdmss: ARGUMENTS[sigma2_hdmss],
    mixture_normal_cdf: ARGUMENTS[mixture_normal_cdf],
}

#: values that an argument of each numeric annotation refuses, by label
NOT_NUMBERS = {
    int: {"1.5": 1.5, "1.0": 1.0, '"3"': "3", "True": True, "None": None},
    float: {'"1"': "1", "True": True, "None": None, "1+0j": 1 + 0j, "10**400": 10**400},
}


@pytest.mark.parametrize("fn, name", [
    pytest.param(fn, name, id=f"{fn.__name__}.{name}")
    for fn in NUMBERS for name, hint in typing.get_type_hints(fn).items()
    if name != "return" and hint in NOT_NUMBERS
])
def test_number_argument_is_refused_by_name(fn, name):
    fn(**NUMBERS[fn])
    for label, value in NOT_NUMBERS[typing.get_type_hints(fn)[name]].items():
        with pytest.raises(TypeError, match=rf"^{name} must ") as err:
            fn(**{**NUMBERS[fn], name: value})
        assert "\n" not in str(err.value), label
