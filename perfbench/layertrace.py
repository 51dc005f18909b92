"""Layer tracer that measures r13verify from outside the package.

Installing a Tracer wraps every public module-level function of every
``r13verify.<module>`` and rebinds the wrapper under each name that refers
to the original in any r13verify module, so calls that go through a module
global (including calls inside the defining module) open a span. The
report's suite table is wrapped the same way. Nothing under ``src/`` is
edited; the wrapping lives only in the traced process.

A span records its name, start, end and parent span. Spans stay in memory
and are written out by ``write_spans`` at the end of the run. The layer of a
span is its module name; a layer's self time is the summed duration of its
spans minus the part covered by their child spans.

The dense factorizations of ``scipy.linalg`` and ``numpy.linalg`` are
wrapped as well. Each call adds one LAPACK call and a flop count derived
from the operand shapes to the innermost open layer span. The counts are
labelled "computed": they follow textbook operation counts and ignore
cache behaviour, so they repeat exactly from run to run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import numpy.linalg
import scipy.linalg

PACKAGE = "r13verify"
LAYERS = ("tensors", "ellipticity", "spaces", "assembly", "korn", "saddlepoint", "report")
SUITES = ("ellipticity", "korn", "constants", "solve", "limit", "bc")
UNATTRIBUTED = "none"


# Saddle-point stages reported as self times, by the functions that form them.
SADDLEPOINT_STAGES = {
    "kernel_basis": ("kernel_basis", "cokernel_basis"),
    "coercivity": ("coercivity_constant",),
    "infsup": ("infsup_constant",),
    "operator_norm": ("operator_norm",),
    "solve": ("solve_mixed", "dual_norm"),
}

# Per-layer metrics: name -> (unit, better). trace.overhead_ratio is added by
# run.py from the traced and untraced repetitions.
LAYER_METRICS = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "tensors.projection_calls": ("count", "lower"),
    "tensors.distinct_ratio": ("ratio", "higher"),
    "korn.pencil_solves": ("count", "lower"),
    "ellipticity.symbol_samples": ("count", "lower"),
    "assembly.calls": ("count", "lower"),
    "assembly.distinct_ratio": ("ratio", "higher"),
    "saddlepoint.lapack_calls": ("count", "lower"),
    "saddlepoint.flops_computed": ("flop", "lower"),
    **{f"saddlepoint.{stage}_s": ("s", "lower") for stage in SADDLEPOINT_STAGES},
    "saddlepoint.distinct_B_ratio": ("ratio", "higher"),
    **{f"report.{suite}_s": ("s", "lower") for suite in SUITES},
}

# Calls whose inputs are keyed for the redundancy ratios. assemble_system is
# keyed by the inputs its matrices depend on (spaces, params): its loads are
# cheap and differ per call by design, the matrices are what gets rebuilt.
_KEYED = {
    ("tensors", "projection_matrix2"): lambda args, kw: (args, kw),
    ("tensors", "projection_matrix3"): lambda args, kw: (args, kw),
    ("assembly", "assemble_form"): lambda args, kw: (args, kw),
    ("assembly", "assemble_system"): lambda args, kw: (args[:2], {k: kw[k] for k in ("spaces", "params") if k in kw}),
}


def content_key(obj):
    """Hashable key of a call input: arrays by a digest of their bytes."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return ("array", data.dtype.str, data.shape, hashlib.blake2b(data.data, digest_size=16).hexdigest())
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return obj
    if isinstance(obj, (tuple, list)):
        return tuple(content_key(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, content_key(v)) for k, v in obj.items()))
    if type(obj).__name__ == "DiscreteSpaces":
        # the spaces are a deterministic function of these three inputs
        return ("DiscreteSpaces", obj.degree, obj.subdivisions, obj.pressure_mode)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            content_key(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    return ("object", type(obj).__name__, id(obj))


# -- computed flop counts ---------------------------------------------------


def _batch_mn(a):
    shape = np.shape(a)
    batch = math.prod(shape[:-2]) if len(shape) > 2 else 1
    return batch, shape[-2], shape[-1]


def _cplx(a) -> int:
    return 4 if np.iscomplexobj(a) else 1


def _nrhs(b) -> int:
    shape = np.shape(b)
    return shape[-1] if len(shape) > 1 else 1


def _flops_svd(args, kw):
    a = args[0]
    full = kw.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kw.get("compute_uv", args[2] if len(args) > 2 else True)
    batch, m, n = _batch_mn(a)
    big, k = max(m, n), min(m, n)
    if not uv:
        f = 4 * big * k * k - 4 * k**3 / 3
    elif full:
        f = 4 * big * big * k + 8 * big * k * k + 9 * k**3
    else:
        f = 6 * big * k * k + 20 * k**3
    return batch * _cplx(a) * f


def _pencil(args, kw):
    """The b matrix of a generalized eigenproblem, or None."""
    b = kw.get("b", args[1] if len(args) > 1 else None)
    return None if isinstance(b, str) else b


def _flops_eigh(args, kw, values_only=False):
    a = args[0]
    b = _pencil(args, kw)
    values_only = values_only or kw.get("eigvals_only", False)
    batch, n, _ = _batch_mn(a)
    f = (4 / 3 if values_only else 9) * n**3
    if b is not None:
        f += 7 / 3 * n**3  # Cholesky of b and reduction to standard form
    return batch * _cplx(a) * f


def _flops_cholesky(args, kw):
    batch, n, _ = _batch_mn(args[0])
    return batch * _cplx(args[0]) * n**3 / 3


def _flops_cho_solve(args, kw):
    c = args[0][0]
    n = np.shape(c)[0]
    return _cplx(c) * 2 * n * n * _nrhs(args[1])


def _flops_solve(args, kw):
    a, b = args[0], args[1]
    batch, n, _ = _batch_mn(a)
    factor = n**3 / 3 if kw.get("assume_a") == "pos" else 2 * n**3 / 3
    return batch * _cplx(a) * (factor + 2 * n * n * _nrhs(b))


def _flops_solve_triangular(args, kw):
    n = np.shape(args[0])[0]
    return _cplx(args[0]) * n * n * _nrhs(args[1])


def _flops_qr(args, kw):
    # numpy's qr forms Q explicitly, which doubles the Householder count
    batch, m, n = _batch_mn(args[0])
    k = min(m, n)
    return batch * _cplx(args[0]) * 2 * (2 * m * n * k - 2 * k**3 / 3)


# (module, function name, flop count)
_FACTORIZATIONS = (
    (scipy.linalg, "svd", _flops_svd),
    (scipy.linalg, "eigh", _flops_eigh),
    (scipy.linalg, "cholesky", _flops_cholesky),
    (scipy.linalg, "cho_factor", _flops_cholesky),
    (scipy.linalg, "cho_solve", _flops_cho_solve),
    (scipy.linalg, "solve", _flops_solve),
    (scipy.linalg, "solve_triangular", _flops_solve_triangular),
    (numpy.linalg, "svd", _flops_svd),
    (numpy.linalg, "eigh", _flops_eigh),
    (numpy.linalg, "eigvalsh", functools.partial(_flops_eigh, values_only=True)),
    (numpy.linalg, "cholesky", _flops_cholesky),
    (numpy.linalg, "solve", _flops_solve),
    (numpy.linalg, "qr", _flops_qr),
)


class Tracer:
    """Spans, call counts and computed kernel counts of one traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[int] = []
        self._layer_of: list[str] = []
        self._system_stack: list = []  # MixedSystem of each open saddlepoint span
        self._in_kernel = False
        self.calls: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)
        self.lapack_calls: Counter = Counter()
        self.flops: Counter = Counter()
        self.pencil_solves: Counter = Counter()
        self.symbol_samples = 0
        self.b_svds = 0
        self.b_digests: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        if not modules:
            raise RuntimeError(f"{PACKAGE} must be imported before the tracer is installed")
        wrappers = {}
        for name, mod in modules.items():
            if name == PACKAGE:
                continue
            layer = name.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == name:
                    wrappers[obj] = self._wrap(layer, attr, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        report = modules.get(f"{PACKAGE}.report")
        if report is not None:
            for suite, fn in list(report._SUITE_FUNCS.items()):
                report._SUITE_FUNCS[suite] = self._wrap("report", f"suite.{suite}", fn)
        for mod, attr, flops in _FACTORIZATIONS:
            setattr(mod, attr, self._wrap_kernel(getattr(mod, attr), flops))

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        keyed = _KEYED.get((layer, name))
        system_arg = layer == "saddlepoint"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[full] += 1
            if keyed is not None:
                a, kw = keyed(args, kwargs)
                self.keys[full].add(content_key((a, kw)))
            system = args[0] if system_arg and args and hasattr(args[0], "B") else None
            idx = len(self.spans)
            span = [full, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
            self.spans.append(span)
            self._layer_of.append(layer)
            self._stack.append(idx)
            self._system_stack.append(system)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                self._system_stack.pop()
            if full == "ellipticity.check_ellipticity":
                self.symbol_samples += int(result.n_samples)
            return result

        return traced

    def _wrap_kernel(self, fn, flops):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._in_kernel:  # a factorization calling another one counts once
                return fn(*args, **kwargs)
            layer = self._layer_of[self._stack[-1]] if self._stack else UNATTRIBUTED
            self.lapack_calls[layer] += 1
            self.flops[layer] += int(flops(args, kwargs))
            if fn.__name__ == "eigh" and _pencil(args, kwargs) is not None:
                self.pencil_solves[layer] += 1
            if fn.__name__ == "svd" and layer == "saddlepoint":
                self._note_b_svd(args[0])
            self._in_kernel = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_kernel = False

        return traced

    def _note_b_svd(self, a) -> None:
        system = next((s for s in reversed(self._system_stack) if s is not None), None)
        if system is None:
            return
        B = system.B
        if a is B or (isinstance(a, np.ndarray) and a.base is B):
            self.b_svds += 1
            self.b_digests.add(content_key(B))

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter, Counter]:
        """Self time per layer and per span name, and inclusive time per name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_layer, by_name, inclusive = Counter(), Counter(), Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            own = end - start - child[i]
            by_layer[self._layer_of[i]] += own
            by_name[name] += own
            inclusive[name] += end - start
        return by_layer, by_name, inclusive

    def _distinct_ratio(self, names) -> float:
        calls = sum(self.calls[n] for n in names)
        distinct = sum(len(self.keys[n]) for n in names)
        return distinct / calls if calls else 1.0

    def layer_metrics(self) -> dict:
        """Per-layer metrics named <layer>.<metric>; a layer never entered reads 0."""
        by_layer, by_name, inclusive = self.self_times()
        m = {f"{layer}.self_s": float(by_layer[layer]) for layer in LAYERS}
        proj = ("tensors.projection_matrix2", "tensors.projection_matrix3")
        m["tensors.projection_calls"] = sum(self.calls[n] for n in proj)
        m["tensors.distinct_ratio"] = self._distinct_ratio(proj)
        m["korn.pencil_solves"] = self.pencil_solves["korn"]
        m["ellipticity.symbol_samples"] = self.symbol_samples
        builders = ("assembly.assemble_form", "assembly.assemble_system")
        m["assembly.calls"] = sum(self.calls[n] for n in builders)
        m["assembly.distinct_ratio"] = self._distinct_ratio(builders)
        m["saddlepoint.lapack_calls"] = self.lapack_calls["saddlepoint"]
        m["saddlepoint.flops_computed"] = self.flops["saddlepoint"]
        for stage, fns in SADDLEPOINT_STAGES.items():
            m[f"saddlepoint.{stage}_s"] = float(sum(by_name[f"saddlepoint.{f}"] for f in fns))
        m["saddlepoint.distinct_B_ratio"] = len(self.b_digests) / self.b_svds if self.b_svds else 1.0
        for suite in SUITES:
            m[f"report.{suite}_s"] = float(inclusive[f"report.suite.{suite}"])
        return m

    def write_spans(self, path) -> None:
        """Write the spans as JSON records: name, layer, parent index, start, end."""
        records = [
            {"name": name, "layer": self._layer_of[i], "parent": parent, "start": start, "end": end}
            for i, (name, parent, start, end) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": records, "lapack_calls": dict(self.lapack_calls),
                       "flops_computed": dict(self.flops), "calls": dict(self.calls)}, fh)
