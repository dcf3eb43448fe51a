"""Benchmark of ``dcmodel suite``: end-to-end time, memory, set-up time
and check pass share per workload, or per-layer self times when traced.

    python3 perfbench/run.py --workload dense-blh --seed 0 --seconds 40 --trace 0

Load model: a closed loop with one caller.  Each repetition is a fresh
interpreter (``child.py``) that imports ``dcmodel`` from ``src/`` of the
checkout and calls ``dcmodel.cli.main`` in-process on each of the
workload's tuple files, one after the other.  Repetitions continue
until the next one would end after ``--seconds``; at least two run
(one pair when traced).

With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` each repetition is an untraced and a traced child, and
the per-layer metrics come from the traced one.  Every report is
checked against the reference of the commit that defined the benchmark
(check names, statuses, degree) and across repetitions (byte-identical).
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

MIN_REPS = 2  # untraced repetitions per run; a traced run needs one pair
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
EXIT_CODES = {0, 1, 2, 3}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# the suite's check roster at the commit that defined the benchmark, in report order
CHECK_NAMES = (
    "validate.contractive", "validate.commuting", "validate.doubly_commuting",
    "validate.pure", "validate.defect_commutation",
    "dilation.isometry", "dilation.intertwining", "dilation.adjoint_on_kernels",
    "dilation.minimality", "dilation.compression",
    "model.boundary_inner", "model.kernel_identity", "model.defect_invariance",
    "model.product_kernel_identity", "model.gramian_kernel", "model.gramian_operator",
    "model.projection_drift", "model.projection_commutators", "model.subspace_split",
    "blh.inner_recovery", "blh.reconstruct_sum",
)

END_TO_END = (
    ("suite_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("checks_passed_share", "ratio"),
)

# layers timed by self time per suite call; those marked also report calls per suite call
TIMED_LAYERS = (
    ("cli.load", False), ("cli.emit", False), ("cli.other", False),
    ("tuples.validate", False),
    ("dilation.build", False), ("dilation.checks", False),
    ("dilation.adjoint_on_kernels", False),
    ("hardy.kernel_vector", True), ("hardy.shift", True), ("hardy.margin_mask", True),
    ("model.charfn", False), ("model.kernel_checks", False),
    ("model.gramian_operator", False), ("model.model_space", False),
    ("model.one_var_factor", True),
    ("blh.inner_recovery", False), ("blh.reconstruct", False),
    ("matrixcore.operator_norm", True), ("matrixcore.range_basis", True),
)
GAUGES = ("dilation.degree", "dilation.space_dim", "dilation.defect_rank",
          "matrixcore.max_operand_dim")


class BenchError(RuntimeError):
    """The benchmark could not produce numbers."""


def blas_threads() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def environment(child_env: dict) -> dict:
    import scipy

    return {
        "nproc": blas_threads(),
        "blas_threads": {v: child_env.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def spawn(mode: str, files: list, env: dict, deadline: float) -> dict:
    """Run one child; returns its JSON result plus ``setup_s``."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), mode, *files]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} repetition passed the {RUN_LIMIT_S:.0f} s run limit") from e
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        out = None
    if not isinstance(out, dict):
        raise BenchError(f"{mode} repetition exited with code {proc.returncode} and no result")
    out["setup_s"] = out["imported_at"] - t0
    return out


def repeat(one, seconds: float, min_reps: int) -> list:
    """Call ``one()`` at least ``min_reps`` times, then until the next
    call would end after ``seconds``."""
    results = []
    t0 = time.monotonic()
    while True:
        results.append(one())
        elapsed = time.monotonic() - t0
        if len(results) >= min_reps and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


class Gate:
    """Checks each suite call against the reference and counts checks."""

    def __init__(self, members: list, reference: list | None):
        self.members = members
        self.reference = reference
        self.first_report = [None] * len(members)
        self.problems = []
        self.calls = 0
        self.failed_calls = 0
        self.checks = 0
        self.failed_checks = 0
        self.status_changes = set()
        self.residual_shift = (0.0, None)

    def add_child(self, child: dict) -> None:
        for k, (m, call) in enumerate(zip(self.members, child["calls"])):
            self.calls += 1
            self.checks += len(CHECK_NAMES)
            problems = self._check_call(k, m, call)
            if problems:
                self.failed_calls += 1
                self.problems.extend(f"{m.label}: {p}" for p in problems)

    def _check_call(self, k: int, m, call: dict) -> list:
        try:
            doc = json.loads(call.get("report") or "null")
        except ValueError:
            doc = None
        if call["error"] is not None or call["code"] not in EXIT_CODES or not isinstance(doc, dict):
            self.failed_checks += len(CHECK_NAMES)
            return [f"lost call (exit code {call['code']}): {call['error'] or 'no JSON report'}"]
        checks = doc.get("checks", [])
        problems = []
        names = tuple(c.get("name") for c in checks)
        if names != CHECK_NAMES:
            problems.append(f"check names differ from the reference: {names}")
        if doc.get("degree") != m.degree:
            raise workloads.SizeMismatch(f"{m.label}: degree {doc.get('degree')}, declared {m.degree}")
        for c in checks:
            status = c.get("status")
            if status != "pass":
                self.failed_checks += 1
            want = "skipped" if c.get("name") in m.skips else "pass"
            if status != want:
                self.status_changes.add(f"{m.label}/{c.get('name')}: {want} -> {status}")
                if status != "pass":
                    problems.append(f"{c.get('name')} is {status}, reference {want}")
        if self.first_report[k] is None:
            self.first_report[k] = call["report"]
            self._residual_shift(k, checks)
        elif call["report"] != self.first_report[k]:
            problems.append("report differs between repetitions")
        return problems

    def _residual_shift(self, k: int, checks: list) -> None:
        if self.reference is None:
            return
        for c, ref in zip(checks, self.reference[k]):
            if c.get("residual") is None or ref is None or not c.get("tolerance"):
                continue
            shift = abs(c["residual"] - ref) / c["tolerance"]
            if shift > self.residual_shift[0]:
                self.residual_shift = (shift, f"{self.members[k].label}/{c['name']}")

    @property
    def correct(self) -> bool:
        return not self.problems


def load_reference(workload: str, seed: int):
    if not REFERENCE.is_file():
        return None
    with open(REFERENCE) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def check_sizes(members: list, gauges: dict) -> None:
    """The traced program's sizes against the largest declared ones."""
    declared = {
        "dilation.degree": max(m.degree for m in members),
        "dilation.space_dim": max(m.space_dim for m in members),
        "dilation.defect_rank": max(m.rank for m in members),
    }
    for name, want in declared.items():
        got = gauges.get(name)
        if got is not None and got != want:
            raise workloads.SizeMismatch(f"{name} is {got}, declared {want}")


def end_to_end(reps: list, probes: list, gate: Gate) -> dict:
    return {
        "suite_s": statistics.median(r["suite_s"] for r in reps),
        # the allocator puts some processes on a lower plateau; the largest is the
        # memory the workload needs
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
        "checks_passed_share": 1.0 - gate.failed_checks / gate.checks,
    }


def per_layer(pairs: list, n_members: int) -> tuple:
    """Per-layer metrics from (untraced, traced) child pairs, and the
    notes that explain them: absent wrap targets, unset gauges, and
    the self-time share of each module in the traced suite time."""
    calls = n_members * len(pairs)
    traced_total = sum(t["suite_s"] for _, t in pairs)
    totals, gauges = {}, {}
    for _, traced in pairs:
        for name, (s, c) in traced["self_times"].items():
            ts, tc = totals.get(name, (0.0, 0))
            totals[name] = (ts + s, tc + c)
        for name, v in traced["gauges"].items():
            gauges[name] = max(gauges.get(name, v), v)
    metrics = {}
    for layer, counted in TIMED_LAYERS:
        s, c = totals.get(layer, (0.0, 0))
        metrics[f"{layer}_s"] = (s / calls, "s")
        if counted:
            metrics[f"{layer}_calls"] = (c / calls, "count")
    for g in GAUGES:
        metrics[g] = (gauges.get(g, 0), "count")
    untraced = statistics.median(u["suite_s"] for u, _ in pairs)
    traced = statistics.median(t["suite_s"] for _, t in pairs)
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    by_module = {}
    for name, (s, _) in totals.items():
        mod = name.split(".")[0]
        by_module[mod] = by_module.get(mod, 0.0) + s / traced_total
    notes = {
        "absent wrap targets": pairs[-1][1]["absent"],
        "unset gauges": [g for g in GAUGES if g not in gauges],
        "self-time share by module": by_module,
    }
    return metrics, gauges, notes


def run(args) -> dict:
    if not (SRC / "dcmodel" / "cli.py").is_file():
        raise BenchError(f"no dcmodel sources under {SRC}")
    deadline = time.monotonic() + RUN_LIMIT_S
    members = workloads.generate(args.workload, args.seed)
    threads = str(blas_threads())
    env = dict(os.environ, **{v: threads for v in BLAS_VARS})
    env.pop("PYTHONPATH", None)
    work = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        files = []
        for k, m in enumerate(members):
            tuple_file = str(work / f"{k}-{m.label}.json")
            workloads.write_tuple_file(tuple_file, m)
            files += [tuple_file, str(work / f"{k}-{m.label}.report.json")]
        gate = Gate(members, load_reference(args.workload, args.seed))
        if args.trace:
            def one():
                return (spawn("untraced", files, env, deadline),
                        spawn("traced", files, env, deadline))

            pairs = repeat(one, args.seconds, 1)
            for pair in pairs:
                for child in pair:
                    gate.add_child(child)
            metrics, gauges, extra = per_layer(pairs, len(members))
            check_sizes(members, gauges)
            extra["repetitions"] = len(pairs)
        else:
            probes = [spawn("setup", [], env, deadline) for _ in range(SETUP_PROBES)]
            reps = repeat(lambda: spawn("untraced", files, env, deadline), args.seconds, MIN_REPS)
            for child in reps:
                gate.add_child(child)
            units = dict(END_TO_END)
            metrics = {k: (v, units[k]) for k, v in end_to_end(reps, probes, gate).items()}
            extra = {"suite_s samples": [r["suite_s"] for r in reps],
                     "peak_rss_mb samples": [r["peak_rss_mb"] for r in reps],
                     "setup_s samples": [r["setup_s"] for r in probes + reps]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    shift, where = gate.residual_shift
    return {
        "env": environment(env),
        "inputs": [m.sizes() | {"label": m.label} for m in members],
        "gate": {
            "problems": gate.problems[:20],
            "status changes from reference": sorted(gate.status_changes),
            "checks_failed_share":
                f"{gate.failed_checks}/{gate.checks} = {gate.failed_checks / gate.checks:.4f}",
            "max residual shift (share of tolerance)":
                (shift, where) if gate.reference is not None else "no stored reference for seed",
        },
        **extra,
        "metrics": metrics,
        "result": {
            "correct": gate.correct,
            "attempted": gate.calls,
            "failed": gate.failed_calls,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(args)
    except (BenchError, workloads.SizeMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for key, value in out.items():
        if key not in ("metrics", "result"):
            print(f"{key}: {json.dumps(value)}")
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
