"""Span tracer for the benchmark's traced runs.

``Tracer.install`` replaces each public misolim function named in
``TRACED`` with a wrapper that records a span, at every module that binds
it: the package re-exports names and the modules import each other's
functions with ``from .x import f``, so rebinding only the defining module
would let calls escape. ``CovarianceMatrix.__init__`` and
``CovarianceMatrix.identity`` are wrapped on the class.

A span is a dict with name, start and end (monotonic ns), the id of the
enclosing span on the same thread, the thread id, and the counts its
layer records. Spans stay in memory until the run writes them out.
Counts that need work of their own (hashing a matrix, for instance) are
taken inside a ``trace.bookkeeping`` span, so that work is not billed to
any library layer.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Module of misolim -> public functions traced in it.
TRACED = {
    "randmat": ("psd_factor", "sample_cn", "sample_scalar_cn",
                "exponential_correlation", "nearly_psd"),
    "specfun": ("one_minus_x_ex_e1",),
    "estimation": ("lmmse_filter", "error_covariance", "error_floor",
                   "mse_per_antenna", "empirical_mse"),
    "capacity": ("capacity_upper_bound", "capacity_ideal_jensen",
                 "lower_bound_mc"),
    "energy": ("ee_sweep",),
    "experiments": ("run_experiment", "write_csv"),
    "cli": ("main",),
}
COVARIANCE = "randmat.CovarianceMatrix"
BOOKKEEPING = "trace.bookkeeping"
# Spans that only run the sweep; time in them is not grid-point work.
SWEEP_SPANS = {"bench.workload", "cli.main", "experiments.run_experiment",
               "energy.ee_sweep"}

_BYTES_PER_ENTRY = 16  # complex128


def _matrix_digest(args):
    m = args["m"]
    a = getattr(m, "matrix", m)
    import numpy as np

    a = np.ascontiguousarray(a)
    h = hashlib.blake2b(str((a.shape, a.dtype.str)).encode(), digest_size=16)
    h.update(a.view(np.uint8))
    return {"digest": h.hexdigest()}


def _sample_counts(result, args):
    draws = result.shape[0] if result.ndim == 2 else 1
    n = result.shape[-1]
    return {"draws": draws, "flops": 8 * draws * n * n}


# Counts each layer records, computed from (result, bound arguments).
COUNTS = {
    "randmat.psd_factor": lambda result, args: _matrix_digest(args),
    "randmat.sample_cn": _sample_counts,
    "estimation.empirical_mse": lambda result, args: {
        "draws": args["n_samples"]},
    "capacity.lower_bound_mc": lambda result, args: {
        "draws": args["n_samples"], "effective": result.n_samples},
    "experiments.write_csv": lambda result, args: {
        "bytes": os.path.getsize(args["path"])},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "thread": threading.get_ident(),
                "parent": stack[-1]["id"] if stack else None,
                "start": time.monotonic_ns(), "end": None}
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic_ns()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, name: str, fn, counts=None):
        tracer = self
        signature = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counts is not None:
                with tracer.span(BOOKKEEPING):
                    bound = signature.bind(*args, **kwargs).arguments
                    span.update(counts(result, bound))
            return result

        return traced

    def install(self, package) -> None:
        """Rebind every traced function of ``package`` wherever it is bound.

        Import every submodule that binds them before calling this.
        """
        prefix = package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        for layer, names in TRACED.items():
            home = sys.modules[f"{prefix}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                traced = self.wrap(name, original, COUNTS.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)
        self._install_covariance(sys.modules[f"{prefix}.randmat"].CovarianceMatrix)

    def _install_covariance(self, cls) -> None:
        init = cls.__init__
        identity = cls.__dict__["identity"].__func__
        tracer = self

        def record(span, cov):
            span["bytes"] = _BYTES_PER_ENTRY * cov.dim * cov.dim

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            span = tracer.open(COVARIANCE)
            try:
                init(obj, *args, **kwargs)
            finally:
                tracer.close(span)
            record(span, obj)

        @functools.wraps(identity)
        def traced_identity(klass, *args, **kwargs):
            span = tracer.open(COVARIANCE)
            try:
                cov = identity(klass, *args, **kwargs)
            finally:
                tracer.close(span)
            record(span, cov)
            return cov

        cls.__init__ = traced_init
        cls.identity = classmethod(traced_identity)


def _clipped(span: dict, w0: int, w1: int) -> int:
    return max(0, min(span["end"], w1) - max(span["start"], w0))


def _union_ns(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_stats(spans, window, main_thread: int, workers: int) -> dict:
    """Per-layer metrics of one traced run.

    ``window`` is the sweep, (first grid point, last result written), in
    monotonic ns. Self time is a span's time inside the window minus the
    part its child spans cover, so the main thread's self times add up to
    the sweep; spans of worker threads add their busy time on top.
    """
    w0, w1 = window
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    main_self_ns = 0
    sums = defaultdict(int)
    digests = []
    busy = defaultdict(list)
    for s in spans:
        own = _clipped(s, w0, w1) - sum(_clipped(c, w0, w1)
                                        for c in children[s["id"]])
        name = s["name"]
        calls[name] += 1
        self_ns[name] += own
        if s["thread"] == main_thread:
            main_self_ns += own
        for key in ("draws", "flops", "bytes", "effective"):
            if key in s:
                sums[name, key] += s[key]
        if "digest" in s:
            digests.append(s["digest"])
        if name not in SWEEP_SPANS and _clipped(s, w0, w1):
            busy[s["thread"]].append((max(s["start"], w0), min(s["end"], w1)))

    sweep_ns = w1 - w0
    if main_self_ns != sweep_ns:
        raise RuntimeError(
            f"main-thread self times sum to {main_self_ns} ns, "
            f"sweep is {sweep_ns} ns")

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer, names in TRACED.items():
        for fname in names:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
    out[f"{COVARIANCE}.calls"] = calls[COVARIANCE]
    out[f"{COVARIANCE}.self_s"] = self_ns[COVARIANCE] / 1e9
    psd = "randmat.psd_factor"
    out[f"{psd}.repeat_ratio"] = ratio(len(digests) - len(set(digests)),
                                       len(digests))
    out["randmat.sample_cn.draws"] = sums["randmat.sample_cn", "draws"]
    out["randmat.sample_cn.flops"] = sums["randmat.sample_cn", "flops"]
    out["randmat.cov_dense_bytes"] = sums[COVARIANCE, "bytes"]
    out["estimation.empirical_mse.draws"] = sums["estimation.empirical_mse",
                                                 "draws"]
    mc = "capacity.lower_bound_mc"
    out[f"{mc}.draws"] = sums[mc, "draws"]
    out[f"{mc}.effective_ratio"] = ratio(sums[mc, "effective"],
                                         sums[mc, "draws"])
    out["experiments.write_csv.bytes"] = sums["experiments.write_csv", "bytes"]
    out["trace.bookkeeping.self_s"] = self_ns[BOOKKEEPING] / 1e9
    out["bench.workload.self_s"] = self_ns["bench.workload"] / 1e9
    busy_ns = sum(_union_ns(iv) for iv in busy.values())
    out["experiments.worker_util"] = ratio(busy_ns, sweep_ns * workers)
    return out
