"""Tests of the benchmark itself: tracer, gate, generators, and the
refusal to run without sources.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


class TestTracer:
    def test_self_time_subtracts_direct_children(self):
        t = tracing.Tracer(clock=fake_clock([0.0, 1.0, 3.0, 4.0, 4.5, 10.0]))
        root = t.enter("root")
        a = t.enter("a")
        t.exit(a)        # a: 1 .. 3
        b = t.enter("a")
        t.exit(b)        # a: 4 .. 4.5
        t.exit(root)     # root: 0 .. 10
        st = t.self_times()
        assert st["a"] == (2.5, 2)
        assert st["root"] == (7.5, 1)
        assert t.spans[a][3] == root

    def test_span_closes_when_the_call_raises(self):
        t = tracing.Tracer()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            t.wrap(boom, "layer")()
        assert t.spans[0][2] is not None and not t._stack

    def test_absent_targets_are_reported_not_raised(self):
        mod = types.ModuleType("fake_pkg_mod")

        class Space:
            def mask(self):
                return "mask"

        mod.present = lambda x: x + 1
        mod.Space = Space
        sys.modules["fake_pkg_mod"] = mod
        try:
            targets = [
                ("fake_pkg_mod", "present", "layer.present"),
                ("fake_pkg_mod", "Space.mask", "layer.mask"),
                ("fake_pkg_mod", "deleted", "layer.deleted"),
                ("fake_pkg_mod", "Gone.method", "layer.gone"),
                ("no_such_module_anywhere", "f", "layer.f"),
            ]
            t = tracing.Tracer()
            original = mod.present
            undo, absent = tracing.install(t, targets)
            assert absent == ["fake_pkg_mod.deleted", "fake_pkg_mod.Gone.method",
                              "no_such_module_anywhere.f"]
            assert mod.present(1) == 2 and Space().mask() == "mask"
            assert {s[0] for s in t.spans} == {"layer.present", "layer.mask"}
            undo()
            assert mod.present is original and "mask" in vars(Space)
        finally:
            del sys.modules["fake_pkg_mod"]

    def test_traced_suite_call_attributes_its_time(self, tmp_path):
        from dcmodel import cli

        import child

        m = workloads.generate("small-sweep", 0)[1]  # random-4: n=1, N=36
        pair = (str(tmp_path / "t.json"), str(tmp_path / "r.json"))
        workloads.write_tuple_file(pair[0], m)
        t = tracing.Tracer()
        undo, _absent = tracing.install(t)
        try:
            total, calls = child.run_pass(cli, [pair], t)
        finally:
            undo()
        assert calls[0]["code"] == 0 and calls[0]["error"] is None
        st = t.self_times()
        assert sum(s for s, _ in st.values()) == pytest.approx(total, rel=0.05)
        assert st["hardy.kernel_vector"][1] == 20
        assert t.gauges["dilation.degree"] == m.degree
        assert t.gauges["dilation.space_dim"] == m.space_dim


def report(statuses, degree=16):
    return json.dumps({
        "checks": [{"name": n, "status": s, "residual": None if s == "skipped" else 0.0,
                    "tolerance": None if s == "skipped" else 1e-9}
                   for n, s in zip(run.CHECK_NAMES, statuses)],
        "degree": degree,
    })


def call(statuses, degree=16, code=0):
    return {"code": code, "error": None, "report": report(statuses, degree)}


class TestGate:
    member = workloads.Member("m", (np.zeros((1, 1)),), 0, dim=1, rank=1, degree=16,
                              skips=("blh.reconstruct_sum",))
    ref_statuses = ["pass"] * 20 + ["skipped"]

    def gate(self):
        return run.Gate([self.member], None)

    def test_reference_statuses_pass_and_count_skips(self):
        g = self.gate()
        g.add_child({"calls": [call(self.ref_statuses)]})
        g.add_child({"calls": [call(self.ref_statuses)]})
        assert g.correct and (g.calls, g.failed_calls) == (2, 0)
        assert (g.failed_checks, g.checks) == (2, 42)

    def test_skip_turning_into_pass_is_allowed(self):
        g = self.gate()
        g.add_child({"calls": [call(["pass"] * 21)]})
        assert g.correct and g.failed_checks == 0 and g.status_changes

    @pytest.mark.parametrize("statuses", [
        ["fail"] + ["pass"] * 19 + ["skipped"],
        ["pass"] * 19 + ["skipped", "skipped"],
        ["pass"] * 20 + ["fail"],
    ])
    def test_departures_from_the_reference_fail(self, statuses):
        g = self.gate()
        g.add_child({"calls": [call(statuses)]})
        assert not g.correct and g.failed_calls == 1

    def test_degree_other_than_declared_is_an_error(self):
        with pytest.raises(workloads.SizeMismatch):
            self.gate().add_child({"calls": [call(self.ref_statuses, degree=32)]})

    @pytest.mark.parametrize("lost", [
        {"code": None, "error": "Traceback"},
        {"code": 0, "error": None, "report": "{not json"},
        {"code": 4, "error": None, "report": report(["pass"] * 20 + ["skipped"])},
    ])
    def test_lost_call_counts_every_check(self, lost):
        g = self.gate()
        g.add_child({"calls": [lost]})
        assert not g.correct and g.failed_checks == 21

    def test_reports_must_be_identical_across_repetitions(self):
        g = self.gate()
        g.add_child({"calls": [call(self.ref_statuses)]})
        other = call(self.ref_statuses)
        other["report"] += " "
        g.add_child({"calls": [other]})
        assert not g.correct

    def test_residual_shift_is_a_share_of_tolerance(self):
        g = run.Gate([self.member], [[0.0] * 19 + [5e-10, None]])
        g.add_child({"calls": [call(self.ref_statuses)]})
        assert g.residual_shift == (0.5, "m/blh.inner_recovery")


class TestWorkloads:
    @pytest.mark.parametrize("name,seed", itertools.product(sorted(workloads.WORKLOADS),
                                                            [0, 7, 123456]))
    def test_deterministic_and_declared(self, name, seed):
        a, b = workloads.generate(name, seed), workloads.generate(name, seed)
        for x, y in zip(a, b):
            assert all(np.array_equal(f, g) for f, g in zip(x.factors, y.factors))
        assert a[0].sample_seed == b[0].sample_seed

    def test_declared_sizes(self):
        assert [m.sizes() for m in workloads.generate("dense-blh", 3)] == [
            {"n": 2, "dim": 4, "r": 4, "d": 16, "N": 1156}]
        assert [m.sizes() for m in workloads.generate("slow-decay", 3)] == [
            {"n": 2, "dim": 4, "r": 4, "d": 256, "N": 264196}]
        sweep = workloads.generate("small-sweep", 3)
        assert {m.n for m in sweep} == {1, 2, 3}
        assert all(m.degree in (8, 16) and m.space_dim <= 1000 for m in sweep)

    def test_factor_constructions_pin_the_degree(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = workloads.tensor_factor(rng, 2)
            assert np.linalg.norm(A, 2) == pytest.approx(0.4)
            assert np.max(np.abs(np.linalg.eigvals(A))) >= 0.3
            N = workloads.slow_normal_factor(rng)
            assert np.allclose(N @ N.conj().T, N.conj().T @ N)
            assert np.linalg.norm(np.linalg.matrix_power(N, 9), 2) == pytest.approx(0.93 ** 9)


def test_metric_names_match_benchmark_json():
    with open(BENCH_DIR.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    traced = {"suite_s": 1.0, "self_times": {}, "gauges": {}, "absent": []}
    metrics, _, _ = run.per_layer([({"suite_s": 1.0}, traced)], 1)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(units[k] == u for k, (_, u) in metrics.items())
    assert all(units[k] == u for k, u in run.END_TO_END)


def test_untraced_run_with_a_wrong_degree_prints_no_metrics(monkeypatch, capsys):
    m = workloads.generate("small-sweep", 0)[1]  # random-4: n=1, d=8, N=36
    wrong = workloads.Member(m.label, m.factors, m.sample_seed, dim=m.dim, rank=m.rank,
                             degree=2 * m.degree, skips=m.skips)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(workloads, "generate", lambda name, seed: [wrong])
    code = run.main(["--workload", "small-sweep", "--seed", "0", "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr()
    assert code == 2 and "declared 16" in out.err
    assert out.out == ""


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
