"""Command-line entry point: load tuples from JSON files, run the
validation and verification pipeline, generate demo tuples, and emit
text or JSON reports.

Exit codes: 0 every check evaluated and passed, 1 validation failure,
2 a numerical check failed or was not evaluated, 3 I/O or parse error.
The verdict is ``fail`` if a check failed, ``incomplete`` if none failed
but one was skipped, else ``pass``.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's gettext loads it lazily: load it here, not in a suite call
import sys
from dataclasses import dataclass, field

import numpy as np

from .blh import model_inner_functions, reconstruct_S_check
from .dilation import (
    DegreeCapExceeded,
    adjoint_on_kernels_check,
    build_dilation,
    compressed_tuple_residual,
    intertwining_residual,
    isometry_defect,
    minimality_check,
)
from .matrixcore import DEFAULT_TOL, NumericalFailure, ToleranceConfig
from .model import (
    NotProjection,
    ProjectionDriftExceedsTolerance,
    ResolventSingular,
    charfns_for_tuple,
    inner_boundary_check,
    kernel_identity_check,
    model_space,
    polydisc_kernel_checks,
)
from .tuples import (
    ContractionTuple,
    defect_commutation_check,
    defect_operators,
    make_random_pure_contraction,
    make_tensor_tuple,
    validate_tuple,
)


class TupleFileError(ValueError):
    """The tuple file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str              # "pass" | "fail" | "skipped"
    residual: float | None
    tolerance: float | None
    ref: str                 # human-readable anchor for the identity checked
    note: str = ""


# every check in roster order, with the identity it certifies
_PAPER_REFS = {
    "validate.contractive": "operator norms at most one",
    "validate.commuting": "pairwise commutation",
    "validate.doubly_commuting": "commutation with the other adjoints",
    "validate.pure": "spectral radius below one (purity certificate)",
    "validate.defect_commutation": "defects of a doubly commuting tuple commute",
    "dilation.isometry": "the truncated dilation map is an isometry",
    "dilation.intertwining": "dilation intertwines adjoints with coordinate coshifts",
    "dilation.adjoint_on_kernels": "dilation adjoint acts on kernel vectors by resolvents",
    "dilation.minimality": "degree-zero block spans the joint defect space",
    "dilation.compression": "compressing the shifts to the dilation range recovers the tuple",
    "model.boundary_inner": "one-variable symbols are inner on the boundary",
    "model.kernel_identity": "one-variable kernel factorization through the symbol",
    "model.defect_invariance": "kernel operators leave the joint defect space invariant",
    "model.product_kernel_identity": "product kernel factorization on the joint defect space",
    "model.gramian_kernel": "dilation Gramian equals the multiplier-complement product (kernels)",
    "model.gramian_operator": "dilation Gramian equals the multiplier-complement product (operators)",
    "model.projection_drift": "truncated multiplier Gramians are projections up to tails",
    "model.projection_commutators": "multiplier range projections commute",
    "model.subspace_split": "dilation range complements the multiplier sum space",
    "blh.inner_recovery": "wandering-subspace columns are inner Taylor columns",
    "blh.reconstruct_sum": "recovered inner multipliers regenerate the sum space",
}

# the checks after validation, which a failed stage leaves unevaluated
_SUITE_NUMERICAL = [name for name in _PAPER_REFS if not name.startswith("validate.")]


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    degree: int | None = None

    def add(self, name, residual, tolerance):
        status = "pass" if residual <= tolerance else "fail"
        self.checks.append(CheckResult(name, status, float(residual), float(tolerance), _PAPER_REFS[name]))

    def skip(self, name, note):
        self.checks.append(CheckResult(name, "skipped", None, None, _PAPER_REFS[name], note))

    @property
    def skipped(self) -> int:
        return sum(c.status == "skipped" for c in self.checks)

    @property
    def verdict(self) -> str:
        """``fail`` if a check failed, else ``incomplete`` if one was not
        evaluated, else ``pass``."""
        if any(c.status == "fail" for c in self.checks):
            return "fail"
        return "incomplete" if self.skipped else "pass"


# ---------------------------------------------------------------------------
# tuple file I/O


def load_tuple_file(path: str) -> tuple:
    """Parse a tuple file; returns (ContractionTuple, metadata)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise TupleFileError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise TupleFileError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise TupleFileError("top-level document must be an object")
    for key in ("n", "dim", "matrices"):
        if key not in doc:
            raise TupleFileError(f"missing required key {key!r}")
    n, dim = doc["n"], doc["dim"]
    mats = doc["matrices"]
    if not (isinstance(n, int) and isinstance(dim, int) and n >= 1 and dim >= 1):
        raise TupleFileError("'n' and 'dim' must be positive integers")
    if not isinstance(mats, list) or len(mats) != n:
        raise TupleFileError(f"'matrices' must hold exactly n={n} matrices")
    out = []
    for a, M in enumerate(mats):
        if not isinstance(M, list) or len(M) != dim:
            raise TupleFileError(f"matrix {a} must have {dim} rows")
        for row in M:
            if not isinstance(row, list) or len(row) != dim:
                raise TupleFileError(f"matrix {a} has a ragged or wrong-length row")
            if not all(isinstance(e, list) and len(e) == 2 and all(map(_is_number, e)) for e in row):
                raise TupleFileError(f"matrix {a} entries must be [re, im] pairs of numbers")
        try:
            out.append(np.array([[complex(float(re), float(im)) for re, im in row] for row in M]))
        except OverflowError as e:
            raise TupleFileError(f"matrix {a} has an entry out of floating-point range") from e
    try:
        T = ContractionTuple(tuple(out))
    except ValueError as e:
        raise TupleFileError(str(e)) from e
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise TupleFileError("'metadata' must be an object")
    seed = meta.get("seed", 0)
    if not (_is_number(seed) and isinstance(seed, int) and seed >= 0):
        raise TupleFileError("metadata 'seed' must be a non-negative integer")
    return T, meta


def _is_number(x) -> bool:
    """A JSON number (``bool`` is an ``int`` subclass but not a number here)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def save_tuple_file(path: str, T: ContractionTuple, metadata: dict) -> None:
    doc = {
        "n": T.n,
        "dim": T.dim,
        "matrices": [
            [[[float(v.real), float(v.imag)] for v in row] for row in M]
            for M in T.matrices
        ],
        "metadata": metadata,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# pipeline


def _validation_checks(T: ContractionTuple, cfg: ToleranceConfig, report: VerificationReport):
    v = validate_tuple(T, cfg)
    report.add("validate.contractive", max(v.contractive_residual), cfg.check_tol)
    report.add("validate.commuting", max(v.commuting_residual.values(), default=0.0), cfg.check_tol)
    report.add("validate.doubly_commuting", max(v.doubly_commuting_residual.values(), default=0.0),
               cfg.check_tol)
    rho, bound = max(v.spectral_radii), 1.0 - cfg.rank_tol
    report.checks.append(CheckResult(
        "validate.pure", "pass" if rho < bound else "fail",
        float(rho), bound, _PAPER_REFS["validate.pure"]))
    if not all(v.contractive):
        # the defects sqrt(I - T^H T) exist only for contractions
        report.skip("validate.defect_commutation", "not evaluated: the tuple is not contractive")
        return v
    try:
        dc = defect_commutation_check(T, cfg)
    except NumericalFailure as e:
        report.skip("validate.defect_commutation", f"not evaluated: {e}")
    else:
        report.add("validate.defect_commutation", dc["max"], cfg.check_tol)
    return v


def run_validate(path: str, cfg: ToleranceConfig = DEFAULT_TOL) -> tuple:
    """Validation-only pipeline; returns (report, exit_code).  A check that
    could not be evaluated on a tuple that failed no check exits 2."""
    T, _meta = load_tuple_file(path)
    report = VerificationReport()
    _validation_checks(T, cfg, report)
    return report, {"pass": 0, "fail": 1, "incomplete": 2}[report.verdict]


# numerical failures that stop the suite part-way; the checks not yet
# evaluated are reported as skipped
_STAGE_ERRORS = (DegreeCapExceeded, ProjectionDriftExceedsTolerance, NotProjection,
                 ResolventSingular, NumericalFailure, np.linalg.LinAlgError)


def run_full_suite(
    path: str,
    cfg: ToleranceConfig = DEFAULT_TOL,
    degree: int | None = None,
    boundary_samples: int = 64,
) -> tuple:
    """Full verification pipeline; returns (report, exit_code).

    Exit code 0 means every numerical identity was evaluated and passed:
    a run that skipped one, because a stage failed numerically, exits 2
    even though no evaluated check failed."""
    T, meta = load_tuple_file(path)
    report = VerificationReport()
    v = _validation_checks(T, cfg, report)
    if not v.passed:
        for name in _SUITE_NUMERICAL:
            report.skip(name, "validation gate failed")
        return report, 1

    rng = np.random.default_rng(meta.get("seed", 0))
    try:
        _numerical_checks(T, cfg, degree, boundary_samples, rng, report)
    except _STAGE_ERRORS as e:
        evaluated = {c.name for c in report.checks}
        for name in _SUITE_NUMERICAL:
            if name not in evaluated:
                report.skip(name, f"not evaluated: {e}")
    return report, (0 if report.verdict == "pass" else 2)


def _numerical_checks(T, cfg, degree, boundary_samples, rng, report: VerificationReport):
    """Add the numerical checks to ``report`` in roster order."""
    if degree is None:
        L = build_dilation(T, d=8, cfg=cfg, adaptive=True)
    else:
        L = build_dilation(T, d=degree, cfg=cfg, adaptive=False)
    report.degree = L.degree

    report.add("dilation.isometry", isometry_defect(L), cfg.tail_tol)
    intw = max(intertwining_residual(L, i) for i in range(T.n))
    report.add("dilation.intertwining", intw, 10.0 * cfg.tail_tol)

    r = L.defects.rank
    kern_samples = []
    for _ in range(20):
        w = 0.6 * rng.random(T.n) * np.exp(2j * np.pi * rng.random(T.n))
        eta = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        kern_samples.append((w, eta / np.linalg.norm(eta)))
    report.add("dilation.adjoint_on_kernels", adjoint_on_kernels_check(L, kern_samples, cfg),
               10.0 * cfg.tail_tol)
    report.add("dilation.minimality", minimality_check(L, cfg), cfg.check_tol)
    report.add("dilation.compression", max(compressed_tuple_residual(L)), cfg.tail_tol)

    charfns = charfns_for_tuple(T, L.defects, cfg)
    report.add("model.boundary_inner",
               max(inner_boundary_check(cf, boundary_samples, cfg) for cf in charfns),
               cfg.check_tol)
    scalar_pairs = [
        (0.7 * rng.random() * np.exp(2j * np.pi * rng.random()),
         0.7 * rng.random() * np.exp(2j * np.pi * rng.random()))
        for _ in range(25)
    ]
    report.add("model.kernel_identity",
               max(kernel_identity_check(T.matrices[i], scalar_pairs, cfg, L.defects.per_op[i])
                   for i in range(T.n)),
               cfg.check_tol)
    vec_pairs = [
        (0.7 * rng.random(T.n) * np.exp(2j * np.pi * rng.random(T.n)),
         0.7 * rng.random(T.n) * np.exp(2j * np.pi * rng.random(T.n)))
        for _ in range(25)
    ]
    invariance, product, gramian = polydisc_kernel_checks(T, L.defects, vec_pairs, cfg)
    report.add("model.defect_invariance", invariance, cfg.check_tol)
    report.add("model.product_kernel_identity", product, cfg.check_tol)
    report.add("model.gramian_kernel", gramian, cfg.check_tol)

    # model_space also measures the operator-form Gramian on the factors it builds
    ms = model_space(T, L, charfns, cfg)
    report.add("model.gramian_operator", ms.gramian_residual, 10.0 * cfg.tail_tol)
    report.add("model.projection_drift", max(ms.margin_drifts), np.sqrt(cfg.tail_tol))
    comm = max(ms.commutator_residuals.values(), default=0.0)
    report.add("model.projection_commutators", comm, np.sqrt(cfg.tail_tol))
    report.add("model.subspace_split", ms.s_residual, np.sqrt(cfg.tail_tol))

    inners = model_inner_functions(ms, cfg)
    drift = max((inner.isometry_drift for inner in inners), default=0.0)
    report.add("blh.inner_recovery", drift, np.sqrt(cfg.tail_tol))
    report.add("blh.reconstruct_sum", reconstruct_S_check(inners, ms, cfg), np.sqrt(cfg.tail_tol))


# ---------------------------------------------------------------------------
# demo generation


def generate_demo(kind: str, dims, radius: float, seed: int) -> tuple:
    """Build a doubly commuting pure tuple; returns (tuple, metadata)."""
    if not dims:
        raise ValueError("dims must be nonempty")
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if kind == "tensor":
        factors = [make_random_pure_contraction(dm, radius, seed + 17 * i)
                   for i, dm in enumerate(dims)]
    elif kind == "jordan":
        factors = []
        for dm in dims:
            J = np.zeros((dm, dm), dtype=complex)
            for a in range(dm - 1):
                J[a, a + 1] = radius
            factors.append(J)
    elif kind == "random":
        rng = np.random.default_rng(seed)
        factors = [
            np.diag(radius * rng.random(dm) * np.exp(2j * np.pi * rng.random(dm)))
            for dm in dims
        ]
    else:
        raise ValueError(f"unknown demo kind {kind!r}")
    T = make_tensor_tuple(factors)
    meta = {"name": f"{kind}-{'x'.join(str(d) for d in dims)}", "seed": seed,
            "kind": kind, "radius": radius}
    return T, meta


# ---------------------------------------------------------------------------
# rendering


_OVERFLOW_NOTE = "residual overflows float64"


def _json_number(x):
    """``x``, or ``None`` where strict JSON has no number for it (inf, NaN)."""
    return x if x is not None and np.isfinite(x) else None


def _json_check(c: CheckResult) -> dict:
    # a residual with no JSON number is written as null, with a note; its
    # status is already "fail", as inf and NaN compare false with any bound
    note = c.note
    if c.residual is not None and _json_number(c.residual) is None:
        note = "; ".join(filter(None, [note, _OVERFLOW_NOTE]))
    return {
        "name": c.name,
        "status": c.status,
        "residual": _json_number(c.residual),
        "tolerance": _json_number(c.tolerance),
        "paper_ref": c.ref,
        **({"note": note} if note else {}),
    }


def emit_report(report: VerificationReport, fmt: str, out=None) -> str:
    """Render a report as a fixed-width table or a stable-key JSON
    document; returns the rendered string (and writes it to ``out``)."""
    if fmt == "json":
        doc = {
            "checks": [_json_check(c) for c in report.checks],
            "verdict": report.verdict,
            "skipped": report.skipped,
            **({"degree": report.degree} if report.degree is not None else {}),
        }
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    elif fmt == "text":
        lines = [f"{'check':<34} {'status':<8} {'residual':>12} {'tolerance':>12}"]
        lines.append("-" * 70)
        for c in report.checks:
            res = f"{c.residual:.3g}" if c.residual is not None else "-"
            tol = f"{c.tolerance:.3g}" if c.tolerance is not None else "-"
            row = f"{c.name:<34} {c.status:<8} {res:>12} {tol:>12}"
            if c.note:
                row += f"  ({c.note})"
            lines.append(row)
        if report.degree is not None:
            lines.append(f"degree used: {report.degree}")
        lines.append(f"verdict: {report.verdict}")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out is not None:
        out.write(text)
    return text


# ---------------------------------------------------------------------------
# argument parsing / entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dcmodel",
                                description="verification toolkit for doubly "
                                "commuting pure tuples of contractions")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="structural validation of a tuple file")
    v.add_argument("file")

    s = sub.add_parser("suite", help="full verification suite on a tuple file")
    s.add_argument("file")
    s.add_argument("--degree", default="adaptive",
                   help="truncation degree, or 'adaptive' (default)")
    s.add_argument("--tail-tol", type=float, default=DEFAULT_TOL.tail_tol)
    s.add_argument("--check-tol", type=float, default=DEFAULT_TOL.check_tol)
    s.add_argument("--boundary-samples", type=int, default=64)
    s.add_argument("--report", default=None, help="also write the JSON report here")

    d = sub.add_parser("demo", help="generate a demo tuple file")
    d.add_argument("kind", choices=("tensor", "random", "jordan"))
    d.add_argument("--dims", required=True,
                   help="comma-separated factor dimensions, e.g. 2,3")
    d.add_argument("--radius", type=float, default=0.4)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            report, code = run_validate(args.file)
            emit_report(report, args.format, sys.stdout)
            return code
        if args.command == "suite":
            cfg = ToleranceConfig(rank_tol=DEFAULT_TOL.rank_tol,
                                  check_tol=args.check_tol, tail_tol=args.tail_tol)
            if args.degree == "adaptive":
                degree = None
            else:
                try:
                    degree = int(args.degree)
                except ValueError:
                    print(f"error: --degree must be an integer or 'adaptive', "
                          f"got {args.degree!r}", file=sys.stderr)
                    return 3
            report, code = run_full_suite(args.file, cfg, degree,
                                          boundary_samples=args.boundary_samples)
            emit_report(report, args.format, sys.stdout)
            if args.report:
                with open(args.report, "w") as f:
                    emit_report(report, "json", f)
            return code
        if args.command == "demo":
            try:
                dims = [int(x) for x in args.dims.split(",") if x.strip()]
            except ValueError:
                print(f"error: bad --dims {args.dims!r}", file=sys.stderr)
                return 3
            T, meta = generate_demo(args.kind, dims, args.radius, args.seed)
            save_tuple_file(args.out, T, meta)
            print(f"wrote {args.out}: n={T.n}, dim={T.dim}")
            return 0
    except (OSError, ValueError) as e:  # TupleFileError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
