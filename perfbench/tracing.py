"""Span tracing of hdtest's public functions, from outside the package.

``Tracer.install`` rebinds every public function of the measured modules
wherever a measured module (or the ``hdtest`` package) binds it by name,
including names imported by value such as ``permutation.masked_statistics``.
Each call then records a span ``(name, start, end, parent, size, flops)``; spans
stay in memory and ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import inspect
import time

#: modules whose functions are timed; ``cli`` and ``kernels`` are not
LAYERS = ("datagen", "statistic", "permutation", "harness", "diagnostics", "asymptotics")


def _masked_work(values, n, m, masks):
    return masks.shape[0], 2.0 * masks.shape[0] * values.shape[0] ** 2


def _psibar_work(data, squared):
    return data.shape[0], 1.5 * data.shape[0] ** 2 * data.shape[1]


def _mask_work(n, m, count, seed):
    return count, 0.0


def _limit_work(gp, alpha, plan, draws, seed=0):
    return draws, 0.0


#: per-call (size, computed flops) taken from the call's arguments: mask
#: rows and 2*S*N^2 for the masked GEMM, rows and 3*N^2*p/2 for distances,
#: masks sampled, and limit draws
WORK = {
    "statistic.masked_statistics": _masked_work,
    "statistic.psibar_matrix": _psibar_work,
    "permutation.sample_masks": _mask_work,
    "asymptotics.power_limit_mc": _limit_work,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, size, flops]
        self._stack: list[int] = []
        self._saved: list[tuple] = []  # (namespace, name, original)

    def _wrap(self, name, fn):
        work_of = WORK.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            size, flops = work_of(*args, **kwargs) if work_of else (0, 0.0)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, size, flops])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    def install(self, package) -> None:
        modules = {f"{package.__name__}.{layer}": getattr(package, layer) for layer in LAYERS}
        wrappers = {}
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in modules:
                    continue
                if obj not in wrappers:
                    label = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(label, obj)
                self._saved.append((namespace, attr, obj))
                setattr(namespace, attr, wrappers[obj])

    def uninstall(self) -> None:
        for namespace, attr, obj in reversed(self._saved):
            setattr(namespace, attr, obj)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the part its child spans cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
