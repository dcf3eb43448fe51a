"""CLI: tuple-file parsing, pipelines, reports, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dcmodel
from dcmodel.cli import (
    _PAPER_REFS,
    TupleFileError,
    VerificationReport,
    emit_report,
    generate_demo,
    load_tuple_file,
    main,
    run_full_suite,
    run_validate,
    save_tuple_file,
)
from dcmodel.tuples import ContractionTuple, make_tensor_tuple


def _write_tuple(path, mats, meta=None):
    T = ContractionTuple(tuple(np.asarray(M, dtype=complex) for M in mats))
    save_tuple_file(str(path), T, meta or {})
    return str(path)


class TestTupleFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = _write_tuple(tmp_path / "t.json", [0.3 * M], {"seed": 5})
        T, meta = load_tuple_file(p)
        assert T.n == 1 and T.dim == 3
        assert np.allclose(T.matrices[0], 0.3 * M, atol=1e-15)
        assert meta["seed"] == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(TupleFileError):
            load_tuple_file(str(tmp_path / "absent.json"))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(TupleFileError):
            load_tuple_file(str(p))

    def test_ragged_matrix_rejected(self, tmp_path):
        p = tmp_path / "ragged.json"
        doc = {"n": 1, "dim": 2,
               "matrices": [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]],
               "metadata": {}}
        p.write_text(json.dumps(doc))
        with pytest.raises(TupleFileError):
            load_tuple_file(str(p))

    def test_wrong_count_rejected(self, tmp_path):
        p = tmp_path / "count.json"
        doc = {"n": 2, "dim": 1, "matrices": [[[[0.0, 0.0]]]], "metadata": {}}
        p.write_text(json.dumps(doc))
        with pytest.raises(TupleFileError):
            load_tuple_file(str(p))

    # valid JSON that used to escape as TypeError, AttributeError or OverflowError
    MALFORMED = {
        "nested-entry": '{"n": 1, "dim": 1, "matrices": [[[[[0.3], 0.0]]]]}',
        "null-entry": '{"n": 1, "dim": 1, "matrices": [[[[null, 0.0]]]]}',
        "bool-entry": '{"n": 1, "dim": 1, "matrices": [[[[true, 0.0]]]]}',
        "string-entry": '{"n": 1, "dim": 1, "matrices": [[[["0.3", 0.0]]]]}',
        "huge-int-entry": '{"n": 1, "dim": 1, "matrices": [[[[1' + '0' * 400 + ', 0.0]]]]}',
        "list-metadata": '{"n": 1, "dim": 1, "matrices": [[[[0.3, 0.0]]]], "metadata": [1, 2]}',
        "list-seed": '{"n": 1, "dim": 1, "matrices": [[[[0.3, 0.0]]]], "metadata": {"seed": [1]}}',
        "infinite-seed":
            '{"n": 1, "dim": 1, "matrices": [[[[0.3, 0.0]]]], "metadata": {"seed": Infinity}}',
        "negative-seed": '{"n": 1, "dim": 1, "matrices": [[[[0.3, 0.0]]]], "metadata": {"seed": -1}}',
        "bool-n": '{"n": true, "dim": 1, "matrices": [[[[0.5, 0.0]]]]}',
        "bool-dim": '{"n": 1, "dim": true, "matrices": [[[[0.5, 0.0]]]]}',
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_content_exit_3(self, tmp_path, capsys, case):
        p = tmp_path / "bad.json"
        p.write_text(self.MALFORMED[case])
        with pytest.raises(TupleFileError):
            load_tuple_file(str(p))
        assert main(["validate", str(p)]) == 3
        assert main(["suite", str(p)]) == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestDemo:
    def test_tensor_demo_validates(self, tmp_path):
        T, meta = generate_demo("tensor", [2, 3], 0.4, 7)
        assert T.n == 2 and T.dim == 6
        p = tmp_path / "demo.json"
        save_tuple_file(str(p), T, meta)
        report, code = run_validate(str(p))
        assert code == 0 and report.verdict == "pass"

    def test_demo_determinism(self, tmp_path):
        for name in ("a.json", "b.json"):
            T, meta = generate_demo("tensor", [2, 2], 0.5, 3)
            save_tuple_file(str(tmp_path / name), T, meta)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_jordan_is_nilpotent(self):
        T, _ = generate_demo("jordan", [3], 0.6, 0)
        assert np.allclose(np.linalg.matrix_power(T.matrices[0], 3), 0.0)

    def test_random_is_diagonal_tensor(self):
        T, _ = generate_demo("random", [2, 2], 0.4, 1)
        for M in T.matrices:
            assert np.allclose(M, np.diag(np.diag(M)))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            generate_demo("bogus", [2], 0.4, 0)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            generate_demo("tensor", [2], 1.5, 0)

    @pytest.mark.parametrize("kind,dims,seed", [("tensor", "0", 0), ("jordan", "0", 0), ("jordan", "2,0", 0),
                                                ("random", "0,2", 0), ("tensor", "-1", 0), ("jordan", "2", -1)])
    def test_unloadable_demo_exits_3(self, tmp_path, capsys, kind, dims, seed):
        # a "dim": 0 file (or a negative seed, which the jordan kind does not
        # use) would only be refused later, by validate and suite
        with pytest.raises(ValueError, match="at least"):
            generate_demo(kind, [int(x) for x in dims.split(",")], 0.4, seed)
        out = tmp_path / "demo.json"
        assert main(["demo", kind, "--dims", dims, "--seed", str(seed), "--out", str(out)]) == 3
        assert not out.exists()
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestPipelines:
    def test_identity_tuple_gates_suite(self, tmp_path):
        p = _write_tuple(tmp_path / "ident.json", [np.eye(2)])
        report, code = run_validate(p)
        assert code == 1
        names = {c.name: c.status for c in report.checks}
        assert names["validate.pure"] == "fail"
        report, code = run_full_suite(p)
        assert code == 1
        assert any(c.status == "skipped" for c in report.checks)
        assert all(c.status == "skipped" for c in report.checks
                   if not c.name.startswith("validate."))

    def test_pure_reports_the_compared_bound(self, tmp_path):
        # spectral radius 1 - 1e-11 is not below 1 - rank_tol: the check
        # fails, and the tolerance it reports is the bound it compared with
        p = _write_tuple(tmp_path / "edge.json", [[[0.99999999999]]])
        report, code = run_validate(p)
        assert code == 1
        check = next(c for c in report.checks if c.name == "validate.pure")
        assert check.status == "fail"
        assert check.tolerance == 1.0 - 1e-10
        assert check.residual >= check.tolerance

    NON_CONTRACTIVE = {
        "norm-2": [[[2.0]]],
        "second-of-two": [[[0.3]], [[2.0]]],
        # finite, but I - T^H T overflows
        "norm-1e200": [[[1e200]]],
        # finite, but the commutators of the originals overflow
        "pair-1e200": [[[1e200]], [[1e200]]],
        # norm 1 + 5e-10 passes the contractivity check, spectral radius
        # 1 + 5e-10 fails purity, and I - T^H T is not PSD within rank_tol
        "just-above-1": [[[1.0 + 5e-10]]],
    }

    @pytest.mark.parametrize("case", sorted(NON_CONTRACTIVE))
    def test_non_contractive_exit_1(self, tmp_path, case):
        # the defects sqrt(I - T^H T) are not taken for a non-contraction
        p = _write_tuple(tmp_path / "big.json", self.NON_CONTRACTIVE[case])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report, code = run_validate(p)
            assert code == 1
            dc = next(c for c in report.checks if c.name == "validate.defect_commutation")
            assert dc.status == "skipped" and dc.note.startswith("not evaluated:")
            report, code = run_full_suite(p)
            assert code == 1

    def test_defects_not_psd_exit_2(self, tmp_path):
        # contractive within check_tol and pure, but I - T^H T has an
        # eigenvalue below -rank_tol: the defects cannot be evaluated
        T = np.array([[0.5, 1.0], [0.0, 0.5]])
        T *= (1.0 + 5e-10) / np.linalg.norm(T, 2)
        p = _write_tuple(tmp_path / "edge.json", [T])
        report, code = run_validate(p)
        assert code == 2 and report.verdict == "incomplete"
        dc = next(c for c in report.checks if c.name == "validate.defect_commutation")
        assert dc.status == "skipped" and "below -rank_tol" in dc.note
        report, code = run_full_suite(p)
        assert code == 2

    def test_non_commuting_defects_evaluated_exit_1(self, tmp_path):
        # contractive but not commuting: the product of the I - T_j T_j^H is
        # not Hermitian, yet the defect commutation check reads only the star
        # defects, so it is evaluated, and fails
        p = _write_tuple(tmp_path / "nc.json", [[[0, 0.5], [0, 0]], [[0.3, 0], [0.2, 0.1]]])
        report, code = run_validate(p)
        assert code == 1
        checks = {c.name: c for c in report.checks}
        assert checks["validate.commuting"].status == "fail"
        dc = checks["validate.defect_commutation"]
        assert dc.status == "fail" and dc.residual > dc.tolerance

    def test_zero_tuple_suite_exact(self, tmp_path):
        p = _write_tuple(tmp_path / "zero.json",
                         [np.zeros((1, 1)), np.zeros((1, 1))])
        report, code = run_full_suite(p)
        assert code == 0 and report.verdict == "pass"
        for c in report.checks:
            if c.status == "pass" and c.name != "validate.pure":
                assert c.residual <= 1e-12

    def test_suite_check_roster(self, tmp_path):
        T, meta = generate_demo("tensor", [2, 2], 0.4, 2)
        p = tmp_path / "demo.json"
        save_tuple_file(str(p), T, meta)
        report, code = run_full_suite(str(p))
        assert code == 0
        names = [c.name for c in report.checks]
        assert names == [
            "validate.contractive", "validate.commuting",
            "validate.doubly_commuting", "validate.pure",
            "validate.defect_commutation",
            "dilation.isometry", "dilation.intertwining",
            "dilation.adjoint_on_kernels", "dilation.minimality",
            "dilation.compression",
            "model.boundary_inner", "model.kernel_identity",
            "model.defect_invariance", "model.product_kernel_identity",
            "model.gramian_kernel", "model.gramian_operator",
            "model.projection_drift", "model.projection_commutators",
            "model.subspace_split",
            "blh.inner_recovery", "blh.reconstruct_sum",
        ]


class TestReports:
    def test_json_schema(self):
        report = VerificationReport()
        report.add("dilation.isometry", 1e-12, 1e-9)
        text = emit_report(report, "json")
        doc = json.loads(text)
        assert set(doc) == {"checks", "verdict", "skipped"}
        assert set(doc["checks"][0]) == {"name", "status", "residual",
                                         "tolerance", "paper_ref"}
        assert doc["verdict"] == "pass" and doc["skipped"] == 0

    def test_text_and_json_verdicts_agree(self):
        report = VerificationReport()
        report.add("dilation.isometry", 1.0, 1e-9)
        assert "verdict: fail" in emit_report(report, "text")
        assert json.loads(emit_report(report, "json"))["verdict"] == "fail"

    def test_empty_report(self):
        text = emit_report(VerificationReport(), "text")
        assert "verdict: pass" in text

    def test_skipped_not_counted_as_failure(self):
        # nor as a pass: the verdict matches exit code 2
        report = VerificationReport()
        report.add("dilation.isometry", 0.0, 1.0)
        report.skip("dilation.intertwining", "too large")
        assert report.verdict == "incomplete"
        doc = json.loads(emit_report(report, "json"))
        assert doc["verdict"] == "incomplete" and doc["skipped"] == 1
        assert "verdict: incomplete" in emit_report(report, "text")
        report.add("dilation.minimality", 1.0, 1e-9)
        assert report.verdict == "fail"


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        demo = str(tmp_path / "demo.json")
        rep1 = str(tmp_path / "r1.json")
        rep2 = str(tmp_path / "r2.json")
        assert main(["demo", "tensor", "--dims", "2,2", "--radius", "0.4",
                     "--seed", "5", "--out", demo]) == 0
        assert main(["validate", demo]) == 0
        assert main(["--format", "json", "suite", demo, "--report", rep1]) == 0
        assert main(["--format", "json", "suite", demo, "--report", rep2]) == 0
        capsys.readouterr()
        assert Path(rep1).read_bytes() == Path(rep2).read_bytes()

    @pytest.mark.parametrize("fmt,renders", [("json", 1), ("text", 2)])
    def test_report_rendered_once(self, tmp_path, capsys, monkeypatch, fmt, renders):
        # with --format json, stdout and --report are the same rendering
        import dcmodel.cli as cli_mod

        demo = str(tmp_path / "demo.json")
        rep = tmp_path / "report.json"
        main(["demo", "jordan", "--dims", "2", "--radius", "0.6", "--out", demo])
        capsys.readouterr()
        calls = []
        emit = cli_mod.emit_report
        monkeypatch.setattr(cli_mod, "emit_report",
                            lambda *args: calls.append(args[1]) or emit(*args))
        assert main(["--format", fmt, "suite", demo, "--report", str(rep)]) == 0
        out = capsys.readouterr().out
        assert len(calls) == renders
        doc = rep.read_bytes()
        assert json.loads(doc)["verdict"] == "pass"
        if fmt == "json":
            assert out.encode() == doc

    def test_parse_error_exit_3(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("nope")
        assert main(["validate", str(p)]) == 3
        capsys.readouterr()

    def test_bad_degree_flag(self, tmp_path, capsys):
        demo = str(tmp_path / "demo.json")
        main(["demo", "jordan", "--dims", "2", "--out", demo])
        assert main(["suite", demo, "--degree", "many"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("extra", [["--bogus"], ["--boundary-samples", "0"],
                                       ["--tail-tol", "abc"], ["--tail-tol", "nan"],
                                       ["--degree", "many"], ["--degree", "-1"]])
    def test_usage_errors_exit_3(self, tmp_path, capsys, extra):
        # argparse's own code 2 would read as a failed numerical check
        demo = str(tmp_path / "demo.json")
        main(["demo", "jordan", "--dims", "2", "--out", demo])
        capsys.readouterr()
        assert main(["suite", demo, *extra]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_infinite_tolerance_exits_3(self, tmp_path, capsys):
        # an infinite check_tol would let the overflowing residuals of this
        # float-limit tuple pass: the run stops before any arithmetic
        path = _write_tuple(tmp_path / "edge.json", [(1.7e308 + 1.7e308j) * np.eye(2)] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["suite", path, "--check-tol", "inf"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: tolerances must be finite and strictly positive\n"

    def test_help_exits_0(self, capsys):
        for argv in (["--help"], ["suite", "--help"]):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 0
        assert "--check-tol" in capsys.readouterr().out

    def test_fixed_degree(self, tmp_path, capsys):
        demo = str(tmp_path / "demo.json")
        main(["demo", "jordan", "--dims", "2", "--radius", "0.6", "--out", demo])
        assert main(["suite", demo, "--degree", "6"]) == 0
        out = capsys.readouterr().out
        assert "degree used: 6" in out

    def test_calls_in_one_process_match_separate_processes(self, tmp_path, capsys):
        # the parser is built once per process: no call may see state that
        # an earlier one left behind
        demo = str(tmp_path / "demo.json")
        assert main(["demo", "tensor", "--dims", "2,2", "--radius", "0.4",
                     "--seed", "1", "--out", demo]) == 0
        capsys.readouterr()
        calls = [["--format", "json", "suite", demo], ["validate", demo],
                 ["suite", demo, "--degree", "many"]]
        code = ("import contextlib, io, json, sys\n"
                "from dcmodel.cli import main\n"
                "runs = []\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    out, err = io.StringIO(), io.StringIO()\n"
                "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
                "        code = main(argv)\n"
                "    runs.append([code, out.getvalue(), err.getvalue()])\n"
                "print(json.dumps(runs))")

        def run(argvs):
            out = TestImports._python(code, json.dumps(argvs))
            assert out.returncode == 0, out.stderr
            return json.loads(out.stdout)

        together = run(calls)
        assert together == [run([argv])[0] for argv in calls]
        assert [exit_code for exit_code, _, _ in together] == [0, 0, 3]


class TestImports:
    """The package runs on numpy alone, in a fresh interpreter."""

    @staticmethod
    def _python(code, *args):
        src = str(Path(dcmodel.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=300)

    def test_import_loads_no_scipy(self):
        out = self._python("import json, sys, dcmodel\n"
                           "print(json.dumps([sorted(m for m in sys.modules if m.startswith('scipy')),\n"
                           "                  'numpy.random' in sys.modules]))")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == [[], True]

    def test_suite_without_scipy(self, tmp_path, capsys):
        # scipy cannot be imported, and a suite call imports no module the
        # package did not already load
        demo = str(tmp_path / "demo.json")
        assert main(["demo", "tensor", "--dims", "2,2", "--radius", "0.4",
                     "--seed", "1", "--out", demo]) == 0
        capsys.readouterr()
        out = self._python("import contextlib, io, sys\n"
                           "sys.modules['scipy'] = None\n"
                           "from dcmodel.cli import main\n"
                           "before = set(sys.modules)\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           "    code = main(['suite', sys.argv[1]])\n"
                           "print(sorted(set(sys.modules) - before))\n"
                           "sys.exit(code)", demo)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestExitCodes:
    """A run that could not evaluate every numerical identity never
    exits 0, and a numerical stage failure never escapes ``main``."""

    @staticmethod
    def _slow_tuple(tmp_path):
        # spectral radius 0.999: neither the dilation tail nor the
        # characteristic-function series converges within its cap
        T = make_tensor_tuple([np.diag([0.999, 0.2]), np.diag([0.3])])
        return _write_tuple(tmp_path / "slow.json", T.matrices)

    @staticmethod
    def _run(tmp_path, *extra):
        rep = str(tmp_path / "report.json")
        code = main(["--format", "json", "suite", TestExitCodes._slow_tuple(tmp_path),
                     "--report", rep, *extra])
        checks = json.loads(Path(rep).read_text())["checks"]
        return code, {c["name"]: c for c in checks}, [c["name"] for c in checks]

    def test_unconverged_adaptive_run_exits_2(self, tmp_path, capsys):
        code, checks, names = self._run(tmp_path)
        capsys.readouterr()
        assert code == 2
        numerical = [c for name, c in checks.items() if not name.startswith("validate.")]
        assert len(numerical) == 16
        assert all(c["status"] == "skipped" for c in numerical)
        assert all(c["status"] == "pass" for name, c in checks.items()
                   if name.startswith("validate."))

    def test_fixed_degree_charfn_cap_exits_2(self, tmp_path, capsys):
        code, checks, names = self._run(tmp_path, "--degree", "8")
        capsys.readouterr()
        assert code == 2
        assert len(names) == 21
        for name, c in checks.items():
            if name.startswith(("model.", "blh.")):
                assert c["status"] == "skipped"
                assert c["note"].startswith("not evaluated:")
            else:
                assert c["status"] != "skipped"

    def test_memory_guard_exits_2(self, tmp_path, capsys):
        # degree 4000 would stream a 64-million-row dilation in every row
        # pass: the work guard stops the suite before any numerical check
        demo = str(tmp_path / "demo.json")
        rep = str(tmp_path / "report.json")
        main(["demo", "tensor", "--dims", "2,2", "--out", demo])
        assert main(["--format", "json", "suite", demo, "--degree", "4000", "--report", rep]) == 2
        capsys.readouterr()
        doc = json.loads(Path(rep).read_text())
        numerical = [c for c in doc["checks"] if not c["name"].startswith("validate.")]
        assert len(numerical) == 16
        for c in numerical:
            assert c["status"] == "skipped"
            assert c["note"] == ("not evaluated: dilation at degree 4000 would generate more rows per pass "
                                 "than the work guard allows")
        assert all(c["status"] == "pass" for c in doc["checks"] if c["name"].startswith("validate."))
        assert doc["verdict"] == "incomplete" and doc["skipped"] == 16

    def test_frame_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        # a box norm above the frame limit is not estimated: the three checks
        # that need frames are skipped with the size in their note, the
        # drift and the BLH checks, which need none, are evaluated in roster
        # order, and there is no traceback
        monkeypatch.setattr("dcmodel.model._FRAME_MAX", 8)
        demo = str(tmp_path / "demo.json")
        rep = str(tmp_path / "report.json")
        main(["demo", "tensor", "--dims", "2,2", "--out", demo])
        assert main(["--format", "json", "suite", demo, "--report", rep]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        doc = json.loads(Path(rep).read_text())
        assert [c["name"] for c in doc["checks"]] == list(_PAPER_REFS)
        skipped = [c for c in doc["checks"] if c["status"] == "skipped"]
        assert [c["name"] for c in skipped] == [
            "model.gramian_operator", "model.projection_commutators", "model.subspace_split"]
        for c in skipped:
            assert c["note"].startswith("not evaluated: ") and "m = " in c["note"] and "above 8" in c["note"]
        assert all(c["status"] == "pass" for c in doc["checks"] if c not in skipped)
        assert doc["verdict"] == "incomplete" and doc["skipped"] == 3

    def test_linear_algebra_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # a LAPACK failure is a ValueError; it must not read as a parse error (3)
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Internal Error.")

        monkeypatch.setattr("dcmodel.cli.model_inner_functions", fail)
        demo = str(tmp_path / "demo.json")
        main(["demo", "jordan", "--dims", "2", "--out", demo])
        report, code = run_full_suite(demo)
        capsys.readouterr()
        assert code == 2
        skipped = [c.name for c in report.checks if c.status == "skipped"]
        assert skipped == ["blh.inner_recovery", "blh.reconstruct_sum"]
        assert all(c.note == "not evaluated: Internal Error." for c in report.checks
                   if c.status == "skipped")


def _entry(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


# ways to spoil a valid tuple document; each must exit 3
_CORRUPTIONS = {
    "nan entry": lambda doc: doc["matrices"][0][0].__setitem__(0, [float("nan"), 0.0]),
    "ragged row": lambda doc: doc["matrices"][0][0].append([0.0, 0.0]),
    "nested entry": lambda doc: doc["matrices"][0][0].__setitem__(0, [[0.3], 0.0]),
    "null entry": lambda doc: doc["matrices"][0][0].__setitem__(0, [None, 0.0]),
    "list metadata": lambda doc: doc.__setitem__("metadata", [1, 2]),
    "list seed": lambda doc: doc.__setitem__("metadata", {"seed": [1]}),
    "infinite seed": lambda doc: doc.__setitem__("metadata", {"seed": float("inf")}),
}


@st.composite
def _tuple_documents(draw):
    """``(document, expected validate code, allowed suite codes)`` for a
    demo tuple (possibly near-unit spectral radius), a non-commuting or
    non-contractive tuple, one with entries near the float limit, or a
    corrupted file."""
    kind = draw(st.sampled_from(["tensor", "random", "jordan"]))
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    radius = draw(st.one_of(st.floats(0.05, 0.9), st.floats(0.99, 0.999)))
    seed = draw(st.integers(0, 2 ** 16))
    T, meta = generate_demo(kind, dims, radius, seed)
    mats = list(T.matrices)
    flaw = draw(st.sampled_from(["none", "non-commuting", "non-contractive", "huge",
                                 "float-limit", "corrupt"]))
    expect = (0, {0, 2})
    if flaw == "non-commuting":
        rng = np.random.default_rng(seed)
        dim = max(T.dim, 2)
        mats = [radius * M / np.linalg.norm(M, 2)
                for M in (rng.standard_normal((dim, dim)) for _ in range(2))]
        expect = (1, {1})
    elif flaw == "non-contractive":
        # still commutes with the others; its norm exceeds 2 - radius
        mats[-1] = mats[-1] + draw(st.floats(2.0, 10.0)) * np.eye(T.dim)
        expect = (1, {1})
    elif flaw == "huge":
        # finite entries near the float limit; products of them overflow
        big = draw(st.floats(1e150, 8e307))
        mats = [big * (M + np.eye(T.dim)) for M in mats]
        expect = (1, {1})
    elif flaw == "float-limit":
        # the norms themselves overflow: the residuals are inf
        mats = [(1.7e308 + 1.7e308j) * np.eye(T.dim) for _ in mats]
        expect = (1, {1})
    doc = {"n": len(mats), "dim": len(mats[0]), "metadata": meta,
           "matrices": [[[_entry(z) for z in row] for row in M] for M in mats]}
    if flaw == "corrupt":
        _CORRUPTIONS[draw(st.sampled_from(sorted(_CORRUPTIONS)))](doc)
        expect = (3, {3})
    return doc, *expect


@given(_tuple_documents())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_contract(case):
    # every tuple file maps to an exit code in {0, 1, 2, 3}, never a
    # traceback, and every JSON report is strict JSON
    doc, validate_code, suite_codes = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tuple.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        for argv, codes in ((["validate", path], {validate_code}),
                            (["suite", path, "--degree", "4"], suite_codes)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["--format", "json", *argv])
            assert code in codes
            if code != 3:
                _strict_json(out.getvalue())


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"{token} is not a JSON number")

    return json.loads(text, parse_constant=reject)


def test_overflowing_residual_is_null(tmp_path, capsys):
    # the norms of 1.7e308 + 1.7e308j entries overflow: the residual is
    # written as null with a note, and the check still fails
    path = _write_tuple(tmp_path / "edge.json", [(1.7e308 + 1.7e308j) * np.eye(2)] * 2)
    assert main(["--format", "json", "validate", path]) == 1
    doc = _strict_json(capsys.readouterr().out)
    checks = {c["name"]: c for c in doc["checks"]}
    for name in ("validate.contractive", "validate.pure"):
        assert checks[name]["residual"] is None
        assert checks[name]["status"] == "fail"
        assert checks[name]["note"] == "residual overflows float64"
    assert doc["verdict"] == "fail"
    assert main(["validate", path]) == 1
    assert "inf" in capsys.readouterr().out
