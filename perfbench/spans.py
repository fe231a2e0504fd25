"""In-memory span tracer that wraps the public functions of edwardsim.

The tracer never edits the package source. It replaces each public
function of the traced modules with a timing wrapper at every place the
function object is bound: a name imported with ``from .silt import
silt_raw_batch`` lives on in ``edwardsim.moments``, ``edwardsim.edwards``
and ``edwardsim.cli`` as well as in ``edwardsim.silt``, so all of those
bindings are swapped. ``GridCovariance.__init__`` is wrapped as the
covariance factor. ``uninstall`` puts every original back.

A span is (layer, name, start, end, parent, op). Spans stay in a list
until the run ends; self time is a span's duration minus its children's
and minus the tracer's own bookkeeping for them (input hashing and
tracemalloc), which would otherwise be charged to the calling layer.
Only spans opened while an op is active are recorded, so the
benchmark's own output checks never show up in the trace.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

# layer name -> module; the layer names are the ones the metrics use
LAYERS = {
    "fbm": "edwardsim.fbm",
    "silt": "edwardsim.silt",
    "cameron_martin": "edwardsim.cameron_martin",
    "moments": "edwardsim.moments",
    "edwards": "edwardsim.edwards",
    "mala": "edwardsim.mala",
}
ROOT_LAYER = "cli"
FACTOR = "GridCovariance"
SAMPLER = "sample_fbm_batch"
BATCH_KERNEL = "silt_raw_batch"
EXPECTATION = "silt_expectation_grid"


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    # work description filled by the wrapper (pairs, values, peak bytes)
    info: dict
    # time the tracer's own bookkeeping for child spans (input hashing,
    # tracemalloc start and stop) spent inside this span; not self time
    trace_s: float = 0.0


class Tracer:
    """Wraps, records and unwraps. One instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._open: list[int] = []  # indices of the spans now open
        self._restore: list[tuple[object, str, object]] = []
        self._silt_inputs: dict[int, list[bytes]] = {}

    # ------------------------------------------------------------ install #

    def install(self) -> None:
        originals = {}
        for layer, modname in LAYERS.items():
            mod = importlib.import_module(modname)
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    originals[id(fn)] = (fn, self._wrap(fn, layer, name))
        # swap every binding of an original function across the package
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "edwardsim" or modname.startswith("edwardsim.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._swap(mod, attr, hit[1])
        cov_cls = importlib.import_module(LAYERS["fbm"]).GridCovariance
        self._swap(cov_cls, "__init__", self._wrap(cov_cls.__init__, "fbm", FACTOR))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap_root(self, fn):
        """The op entry point (``edwardsim.cli.main``) as the root span."""
        return self._wrap(fn, ROOT_LAYER, "main")

    # ------------------------------------------------------------- spans #

    def _under(self, layer: str) -> bool:
        return any(self.spans[i].layer == layer for i in self._open)

    def _wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            info = {}
            if name == BATCH_KERNEL:
                info = tracer._kernel_info(*args, **kwargs)
            elif name == SAMPLER:
                info = _sampler_info(*args, **kwargs)
            stack = tracer._open
            span = Span(layer, name, 0.0, 0.0, stack[-1] if stack else None, tracer.op, info)
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            measure_mem = name == BATCH_KERNEL and not tracemalloc.is_tracing()
            if measure_mem:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if measure_mem:
                    info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                if span.parent is not None:
                    tracer.spans[span.parent].trace_s += (
                        span.start - entered + time.perf_counter() - span.end
                    )

        return wrapper

    def _kernel_info(self, values, grid, epsilons, **_kwargs) -> dict:
        m, n, _d = values.shape
        n_eps = np.atleast_1d(epsilons).size
        info = {"pair_eps": m * (n * (n - 1) // 2) * n_eps}
        if self._under("moments"):
            # identity of the input, to count repeated evaluations
            digest = hashlib.sha1(np.ascontiguousarray(values).tobytes())
            digest.update(np.asarray(epsilons, dtype=float).tobytes())
            self._silt_inputs.setdefault(self.op, []).append(digest.digest())
        return info

    # ----------------------------------------------------------- metrics #

    def op_summary(self, op: int) -> dict:
        """Self time per layer and work counters for one op."""
        ids = [i for i, s in enumerate(self.spans) if s.op == op]
        child_s = dict.fromkeys(ids, 0.0)
        for i in ids:
            s = self.spans[i]
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        self_s = {layer: 0.0 for layer in (ROOT_LAYER, *LAYERS)}
        self_by_name: dict[str, float] = {}
        out = {
            "factor_s": 0.0,
            "factor_calls": 0,
            "sample_s": 0.0,
            "sample_values": 0,
            "kernel_s": 0.0,
            "pair_eps": 0,
            "kernel_calls": 0,
            "peak_temp_bytes": 0,
            "expectation_s": 0.0,
            "expectation_calls": 0,
        }
        for i in ids:
            s = self.spans[i]
            dur = s.end - s.start - s.trace_s
            self_s[s.layer] += dur - child_s[i]
            self_by_name[s.name] = self_by_name.get(s.name, 0.0) + dur - child_s[i]
            if s.name == FACTOR:
                out["factor_s"] += dur
                out["factor_calls"] += 1
            elif s.name == SAMPLER:
                out["sample_s"] += dur
                out["sample_values"] += s.info.get("values", 0)
            elif s.name == BATCH_KERNEL:
                out["kernel_s"] += dur
                out["pair_eps"] += s.info["pair_eps"]
                out["kernel_calls"] += 1
                out["peak_temp_bytes"] = max(out["peak_temp_bytes"], s.info.get("peak_bytes", 0))
            elif s.name == EXPECTATION:
                out["expectation_s"] += dur
                out["expectation_calls"] += 1
        # op time without the tracer's bookkeeping: the self times sum to it
        out["wall_s"] = sum(self_s.values())
        out["self_s"] = self_s
        out["self_by_name"] = self_by_name
        inputs = self._silt_inputs.get(op, [])
        out["moments_silt_calls"] = len(inputs)
        out["moments_silt_distinct"] = len(set(inputs))
        return out

    def dump(self) -> list[dict]:
        return [
            {
                "layer": s.layer,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "trace_s": s.trace_s,
                **s.info,
            }
            for s in self.spans
        ]


def _sampler_info(params, m, *_args, **_kwargs) -> dict:
    return {"values": m * (params.N - 1) * params.d}
