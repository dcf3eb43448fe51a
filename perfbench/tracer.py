"""Span tracer for the traced benchmark run.

Wrappers are installed from outside the program, at the names the
calling modules bind (``from .x import f`` gives each caller its own
binding), so no file of the package changes.  A target that a later
version of the package deletes or renames is listed as absent instead
of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time


def _gramian_layer(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "kernel")
    return "model.gramian_operator" if mode == "operator" else "model.kernel_checks"


# modules that bind operator_norm / orthonormal_range_basis at the reference commit
_NORM_BINDERS = ("matrixcore", "tuples", "hardy", "dilation", "model", "blh")
_BASIS_BINDERS = ("matrixcore", "tuples", "dilation", "model", "blh")

# (module, attribute path, layer); the layer may depend on the call's arguments
TARGETS = [
    ("dcmodel.cli", "load_tuple_file", "cli.load"),
    ("dcmodel.cli", "emit_report", "cli.emit"),
    ("dcmodel.cli", "validate_tuple", "tuples.validate"),
    ("dcmodel.cli", "defect_commutation_check", "tuples.validate"),
    ("dcmodel.cli", "build_dilation", "dilation.build"),
    ("dcmodel.cli", "isometry_defect", "dilation.checks"),
    ("dcmodel.cli", "intertwining_residual", "dilation.checks"),
    ("dcmodel.cli", "minimality_check", "dilation.checks"),
    ("dcmodel.cli", "compressed_tuple_residual", "dilation.checks"),
    ("dcmodel.model", "compressed_tuple_residual", "dilation.checks"),
    ("dcmodel.cli", "adjoint_on_kernels_check", "dilation.adjoint_on_kernels"),
    ("dcmodel.dilation", "kernel_vector", "hardy.kernel_vector"),
    ("dcmodel.dilation", "apply_shift", "hardy.shift"),
    ("dcmodel.dilation", "apply_coshift", "hardy.shift"),
    ("dcmodel.blh", "apply_shift", "hardy.shift"),
    ("dcmodel.hardy", "TruncatedHardySpace.margin_mask", "hardy.margin_mask"),
    ("dcmodel.cli", "charfns_for_tuple", "model.charfn"),
    ("dcmodel.cli", "inner_boundary_check", "model.charfn"),
    ("dcmodel.cli", "kernel_identity_check", "model.kernel_checks"),
    ("dcmodel.cli", "defect_invariance_check", "model.kernel_checks"),
    ("dcmodel.cli", "product_kernel_identity_check", "model.kernel_checks"),
    ("dcmodel.cli", "gramian_identity_check", _gramian_layer),
    ("dcmodel.cli", "model_space", "model.model_space"),
    ("dcmodel.model", "apply_one_var_factor", "model.one_var_factor"),
    ("dcmodel.cli", "model_inner_functions", "blh.inner_recovery"),
    ("dcmodel.cli", "reconstruct_S_check", "blh.reconstruct"),
    *[(f"dcmodel.{m}", "operator_norm", "matrixcore.operator_norm") for m in _NORM_BINDERS],
    *[(f"dcmodel.{m}", "orthonormal_range_basis", "matrixcore.range_basis")
      for m in _BASIS_BINDERS],
]

# the span each suite call runs in; its self time is what no layer claims
ROOT = "cli.other"


def _build_sizes(tracer, args, kwargs, result):
    tracer.gauge("dilation.degree", result.degree)
    tracer.gauge("dilation.space_dim", result.space.total_dim)
    tracer.gauge("dilation.defect_rank", result.defects.rank)


def _operand_dim(tracer, args, kwargs, result):
    shape = getattr(args[0] if args else None, "shape", ())
    tracer.gauge("matrixcore.max_operand_dim", max(shape, default=0))


# extra observations per layer: fn(tracer, args, kwargs, result)
OBSERVERS = {
    "dilation.build": _build_sizes,
    "matrixcore.operator_norm": _operand_dim,
    "matrixcore.range_basis": _operand_dim,
}


class Tracer:
    """Records spans ``[name, start, end, parent]`` in memory, plus
    gauges that keep the largest value seen."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.gauges = {}
        self._stack = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def gauge(self, name: str, value) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)

    def wrap(self, fn, layer):
        observe = OBSERVERS.get(layer) if isinstance(layer, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except AttributeError:
                    pass  # a renamed field leaves the gauge unset, which the report shows
            return result

        return traced

    def self_times(self) -> dict:
        """Per span name: ``(self seconds, calls)``.  Self time is a
        span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            s, c = out.get(name, (0.0, 0))
            out[name] = (s + (end - start) - child, c + 1)
        return out


def _resolve(module: str, path: str):
    """``(owner, attribute)`` for ``module.path``, or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    # a class attribute must be defined on the class itself, so undo can restore it
    if isinstance(owner, type) and attr not in vars(owner):
        return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def install(tracer: Tracer, targets=TARGETS) -> tuple:
    """Wrap every present target; returns ``(undo, absent)`` where
    ``undo()`` restores the originals and ``absent`` lists the
    ``module.path`` names that were not found."""
    saved, absent = [], []
    for module, path, layer in targets:
        found = _resolve(module, path)
        if found is None:
            absent.append(f"{module}.{path}")
            continue
        owner, attr = found
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, layer))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo, absent
