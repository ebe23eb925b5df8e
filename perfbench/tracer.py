"""Out-of-tree span tracer for the per-layer benchmark metrics.

Spans are recorded by wrappers that :meth:`Tracer.install` puts on the names
callers look up at call time: module globals (patched in every loaded
``repro`` module that binds the same function object, so
``repro.core.search.footprint_penalty`` is wrapped as well as the
defining module's name) and class attributes (patched on every class in
the hierarchy that defines the method).  Nothing under ``src/`` is
edited.  :meth:`Tracer.uninstall` restores every original.

A span is ``(name, start, end, parent)``; spans stay in memory until
:meth:`Tracer.dump` writes them out.  Self time is a span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

#: (defining module, function name, span name).  Module-level functions
#: are looked up as globals by their callers.
FUNCTION_SPANS = (
    ("repro.data.synthetic", "train_test_split", "data.train_test_split"),
    ("repro.nn.functional", "conv2d", "nn.conv2d"),
    ("repro.nn.functional", "im2col", "nn.im2col"),
    # The conv input-gradient scatter-add that im2col's backward calls.
    ("repro.nn.functional", "_col2im_array", "nn.col2im"),
    ("repro.autograd.tensor", "matmul", "autograd.matmul"),
    ("repro.autograd.fused", "phase_column_cascade", "autograd.phase_column_cascade"),
    ("repro.autograd.fused", "matmul_chain", "autograd.matmul_chain"),
    ("repro.core.footprint_penalty", "footprint_penalty", "core.footprint_penalty"),
    ("repro.optim.optimizer", "clip_grad_norm_", "optim.clip_grad_norm_"),
    ("repro.onn.trainer", "evaluate_population", "onn.evaluate_population"),
    # The recalibration solve that the design service runs in-process.
    ("repro.hardware.recalibration", "recalibrate_snapshot", "hardware.recalibrate"),
)

#: (module, class, method, span name).  Overrides in subclasses are
#: wrapped too.
METHOD_SPANS = (
    ("repro.autograd.tensor", "Tensor", "backward", "autograd.backward"),
    ("repro.ptc.unitary", "UnitaryFactory", "build", "ptc.build"),
    ("repro.ptc.unitary", "UnitaryFactory", "build_trials", "ptc.build_trials"),
    ("repro.ptc.unitary", "UnitaryFactory", "draw_trial_noise", "ptc.draw_trial_noise"),
    ("repro.core.supermesh", "SuperMeshSpace", "sample", "core.sample"),
    ("repro.core.permutation", "PermutationLearner", "alm_loss", "core.alm_loss"),
    ("repro.core.permutation", "PermutationLearner", "update_multipliers",
     "core.update_multipliers"),
    ("repro.core.supermesh", "SuperMeshSpace", "legalize_permutations",
     "core.legalize_permutations"),
    ("repro.core.supermesh", "SuperMeshSpace", "extract_topology", "core.extract_topology"),
    ("repro.optim.optimizer", "Optimizer", "step", "optim.step"),
    ("repro.onn.layers", "BlockUSV", "build_weight_trials", "onn.build_weight_trials"),
    ("repro.hardware.simulated", "SimulatedChip", "execute", "hardware.execute"),
    ("repro.hardware.simulated", "SimulatedChip", "fidelity_to", "hardware.fidelity_to"),
    ("repro.service.service", "DesignService", "submit", "service.submit"),
    ("repro.service.service", "DesignService", "run", "service.run"),
    ("repro.service.service", "DesignService", "wait", "service.wait"),
)

#: Fused ops whose backward closures run inside ``Tensor.backward``; the
#: closure is wrapped under the op's own span name so the time leaves
#: ``autograd.backward``'s self time.
FUSED_BACKWARD = ("autograd.phase_column_cascade", "autograd.matmul_chain")

#: Every span name, in report order.
SPAN_NAMES = tuple(s for *_, s in FUNCTION_SPANS) + tuple(s for *_, s in METHOD_SPANS)

Span = Tuple[str, float, float, int]


class Tracer:
    """In-memory span and counter recorder (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {"ptc.cache.hits": 0, "ptc.cache.misses": 0}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def record(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (name, t0, t1, spans[idx][3])

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        fused = name in FUSED_BACKWARD

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.record(name, fn, *args, **kwargs)
            if fused and getattr(out, "_backward", None) is not None:
                out._backward = tracer.wrap_backward(name, out._backward)
            return out

        return traced

    def wrap_backward(self, name: str, backward: Callable) -> Callable:
        def traced_backward(g):
            return self.record(name, backward, g)

        return traced_backward

    # -- installation -------------------------------------------------------
    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function and method of the loaded program."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repro" or n.startswith("repro."))]
        for mod_name, fn_name, span in FUNCTION_SPANS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapped = self.wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        for mod_name, cls_name, meth, span in METHOD_SPANS:
            for cls in _hierarchy(getattr(sys.modules[mod_name], cls_name)):
                if meth in cls.__dict__:
                    self._patch(cls, meth, self.wrap(span, cls.__dict__[meth]))
        cache_cls = sys.modules["repro.ptc.cache"].UnitaryBuildCache
        original_get = cache_cls.get
        counters = self.counters

        def counted_get(cache, key):
            hit = original_get(cache, key)
            counters["ptc.cache.hits" if hit is not None else "ptc.cache.misses"] += 1
            return hit

        self._patch(cache_cls, "get", counted_get)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s``."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return out

    def dump(self, path) -> None:
        """Write every span as ``[name, start, end, parent]``."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _hierarchy(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out
