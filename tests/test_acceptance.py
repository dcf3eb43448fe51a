"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line
each, at the stated tolerances."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from dcmodel.blh import (
    model_inner_functions,
    rankone_corollary_check,
    reconstruct_S_check,
)
from dcmodel.cli import generate_demo, main, save_tuple_file
from dcmodel.dilation import (
    adjoint_on_kernels_check,
    build_dilation,
    compressed_tuple_residual,
    intertwining_residual,
    isometry_defect,
    minimality_check,
)
from dcmodel.hardy import TruncatedHardySpace
from dcmodel.matrixcore import operator_norm, orthonormal_range_basis
from dcmodel.model import (
    charfn_taylor,
    charfns_for_tuple,
    inner_boundary_check,
    kernel_identity_check,
    model_space,
    polydisc_kernel_checks,
)
from dcmodel.tuples import (
    ContractionTuple,
    make_random_pure_contraction,
    make_tensor_tuple,
)

import oracles


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def _disc_points(rng, count, cap=0.7):
    return cap * rng.random(count) * np.exp(2j * np.pi * rng.random(count))


def _suite_tuples():
    """Ten deterministic tensor tuples: n in {2, 3}, factor dims <= 3."""
    out = []
    for s in range(10):
        rng = np.random.default_rng(1000 + s)
        n = 2 + (s % 2)
        dims = [int(rng.integers(1, 4)) for _ in range(n)]
        factors = [make_random_pure_contraction(d, 0.4, 2000 + 10 * s + i)
                   for i, d in enumerate(dims)]
        out.append(make_tensor_tuple(factors))
    return out


@pytest.fixture(scope="module")
def suite_tuples():
    return _suite_tuples()


@pytest.fixture(scope="module")
def suite_dilations(suite_tuples):
    return [build_dilation(T, d=8, adaptive=True) for T in suite_tuples]


def test_acceptance_1_one_variable_kernel_identity():
    t0 = time.time()
    worst = 0.0
    for s in range(20):
        rng = np.random.default_rng(s)
        dim = int(rng.integers(1, 5))
        M = make_random_pure_contraction(dim, 0.3 + 0.5 * rng.random(), 500 + s)
        pairs = list(zip(_disc_points(rng, 100), _disc_points(rng, 100)))
        worst = max(worst, kernel_identity_check(M, pairs))
    elapsed = time.time() - t0
    _report(1, worst <= 1e-10 and elapsed <= 5.0,
            f"one-variable kernel identity: max residual {worst:.3e} "
            f"(tol 1e-10), {elapsed:.2f}s (limit 5s)")


def test_acceptance_2_product_kernel_identities(suite_tuples, suite_dilations):
    t0 = time.time()
    worst = 0.0
    for s, (T, L) in enumerate(zip(suite_tuples, suite_dilations)):
        rng = np.random.default_rng(3000 + s)
        pairs = [(_disc_points(rng, T.n), _disc_points(rng, T.n)) for _ in range(50)]
        _, product, gramian = polydisc_kernel_checks(T, L.defects, pairs)
        worst = max(worst, product, gramian)
    elapsed = time.time() - t0
    _report(2, worst <= 1e-9 and elapsed <= 10.0,
            f"product kernel + Gramian (kernel form): max residual {worst:.3e} "
            f"(tol 1e-9), {elapsed:.2f}s (limit 10s)")


def test_acceptance_3_dilation_suite(suite_tuples, suite_dilations):
    t0 = time.time()
    iso = intw = adj = mini = 0.0
    for s, (T, L) in enumerate(zip(suite_tuples, suite_dilations)):
        rng = np.random.default_rng(4000 + s)
        iso = max(iso, isometry_defect(L))
        intw = max(intw, max(intertwining_residual(L, i) for i in range(T.n)))
        samples = []
        for _ in range(20):
            eta = rng.standard_normal(L.defects.rank) + 1j * rng.standard_normal(L.defects.rank)
            samples.append((_disc_points(rng, T.n, 0.6), eta / np.linalg.norm(eta)))
        adj = max(adj, adjoint_on_kernels_check(L, samples))
        mini = max(mini, minimality_check(L))
    elapsed = time.time() - t0
    ok = iso <= 1e-6 and intw <= 1e-6 and adj <= 1e-5 and mini <= 1e-9 and elapsed <= 60.0
    _report(3, ok,
            f"dilation suite: isometry {iso:.3e} (1e-6), intertwining {intw:.3e} "
            f"(1e-6), adjoint-on-kernels {adj:.3e} (1e-5), minimality {mini:.3e} "
            f"(1e-9), {elapsed:.2f}s (limit 60s)")


def test_acceptance_4_exact_nilpotent_regime():
    J2 = np.array([[0, 0.6], [0, 0]], dtype=complex)
    J3 = np.array([[0, 0.5, 0], [0, 0, 0.7], [0, 0, 0]], dtype=complex)
    worst = 0.0
    for factors in ([J2], [J2, J3], [J3, J2]):
        T = make_tensor_tuple(factors)
        L = build_dilation(T, d=4, adaptive=False)
        rng = np.random.default_rng(7)
        worst = max(worst, isometry_defect(L), minimality_check(L),
                    max(intertwining_residual(L, i) for i in range(T.n)),
                    max(compressed_tuple_residual(L)))
        samples = []
        for _ in range(10):
            eta = rng.standard_normal(L.defects.rank)
            samples.append((_disc_points(rng, T.n, 0.6), eta / np.linalg.norm(eta)))
        worst = max(worst, adjoint_on_kernels_check(L, samples))
        cfs = charfns_for_tuple(T, L.defects)
        pairs = [(_disc_points(rng, T.n, 0.6), _disc_points(rng, T.n, 0.6))
                 for _ in range(10)]
        scalar_pairs = [(complex(a[0]), complex(b[0])) for a, b in pairs]
        worst = max(worst,
                    max(inner_boundary_check(cf, 16) for cf in cfs),
                    max(kernel_identity_check(T.matrices[i], scalar_pairs,
                                              pair=L.defects.per_op[i])
                        for i in range(T.n)),
                    *polydisc_kernel_checks(T, L.defects, pairs))
        ms = model_space(T, L, cfs)
        worst = max(worst, max(ms.margin_drifts), ms.s_residual, ms.gramian_residual,
                    max(ms.commutator_residuals.values(), default=0.0))
        inners = model_inner_functions(ms)
        worst = max(worst,
                    max((inn.isometry_drift for inn in inners), default=0.0),
                    reconstruct_S_check(inners, ms))
    _report(4, worst <= 1e-12,
            f"nilpotent exact regime: max residual over all checks {worst:.3e} (tol 1e-12)")


def test_acceptance_5_commuting_projection_sum():
    worst = 0.0
    for s in range(50):
        rng = np.random.default_rng(6000 + s)
        dim = int(rng.integers(2, 21))
        n = int(rng.integers(1, 5))
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        U = np.linalg.qr(G)[0]
        pats = (rng.random((n, dim)) < 0.5)
        projs = [U @ np.diag(p.astype(float)) @ U.conj().T for p in pats]
        got = oracles.sum_projection(projs)
        cols = [U[:, p] for p in pats if p.any()]
        if cols:
            B = orthonormal_range_basis(np.concatenate(cols, axis=1))
            oracle = B @ B.conj().T
        else:
            oracle = np.zeros((dim, dim), dtype=complex)
        worst = max(worst, operator_norm(got - oracle))
    _report(5, worst <= 1e-12,
            f"commuting projection sum vs union-of-ranges oracle: {worst:.3e} (tol 1e-12)")


def test_acceptance_6_model_reconstruction(suite_tuples, suite_dilations):
    comp = split = 0.0
    for T, L in zip(suite_tuples, suite_dilations):
        ms = model_space(T, L, charfns_for_tuple(T, L.defects))
        comp = max(comp, max(compressed_tuple_residual(L)))
        split = max(split, ms.s_residual)
    _report(6, comp <= 1e-6 and split <= 1e-5,
            f"model reconstruction: compression {comp:.3e} (1e-6), "
            f"range-vs-complement split {split:.3e} (1e-5)")


def test_acceptance_7_moebius_round_trip():
    lams = [0.5, 0.6]
    T = make_tensor_tuple([[[lam]] for lam in lams])
    L = build_dilation(T, d=20, adaptive=False)
    cfs = charfns_for_tuple(T, L.defects)
    ms = model_space(T, L, cfs)
    inners = model_inner_functions(ms)
    coeff_err = 0.0
    for lam, inn in zip(lams, inners):
        want = np.zeros(21, dtype=complex)
        want[0] = -lam
        for m in range(1, 21):
            want[m] = (1 - lam ** 2) * lam ** (m - 1)
        got = np.array([inn.columns[m][0, 0] for m in range(len(inn.columns))])
        j = int(np.argmax(np.abs(want)))
        phase = got[j] / want[j]
        phase /= abs(phase)
        coeff_err = max(coeff_err, float(np.max(np.abs(got / phase - want[: len(got)]))))
    rec = reconstruct_S_check(inners, ms)
    _report(7, coeff_err <= 1e-6 and rec <= 1e-5,
            f"scalar-pair round trip at d=20: coefficient error {coeff_err:.3e} "
            f"(1e-6), reconstruction distance {rec:.3e} (1e-5)")


def test_acceptance_8_rank_one_corollary():
    space = TruncatedHardySpace(2, 6, 1)
    pos = oracles.index_pos(space)
    # positive case: span{1, z1} models symbols z1^2 and z2
    Q = np.zeros((space.total_dim, 2), dtype=complex)
    Q[pos[(0, 0)], 0] = 1.0
    Q[pos[(1, 0)], 1] = 1.0
    v = rankone_corollary_check(Q, space)
    pos_ok = (v.doubly_commuting and v.max_commutation_residual <= 1e-12
              and v.defect_rank == 1)
    monos_ok = False
    if v.recovered_inners:
        degs = []
        coeffs_exact = True
        for inn in v.recovered_inners:
            col = np.array([inn.columns[m][0, 0] for m in range(len(inn.columns))])
            dg = int(np.argmax(np.abs(col)))
            degs.append(dg)
            want = np.zeros_like(col)
            want[dg] = col[dg] / abs(col[dg])  # unimodular phase at the monomial
            coeffs_exact &= bool(np.max(np.abs(col - want)) <= 1e-12)
        monos_ok = (sorted(degs) == [1, 2] and v.complement_distance <= 1e-10
                    and coeffs_exact)
    # negative case: span{1, (z1+z2)/sqrt 2}
    Q2 = np.zeros((space.total_dim, 2), dtype=complex)
    Q2[pos[(0, 0)], 0] = 1.0
    Q2[pos[(1, 0)], 1] = 1 / np.sqrt(2)
    Q2[pos[(0, 1)], 1] = 1 / np.sqrt(2)
    v2 = rankone_corollary_check(Q2, space)
    neg_ok = (not v2.doubly_commuting
              and abs(v2.max_commutation_residual - 0.5) <= 1e-12)
    _report(8, pos_ok and monos_ok and neg_ok,
            f"co-invariant round trip: defect rank {v.defect_rank}, commutation "
            f"{v.max_commutation_residual:.3e} (1e-12), recovered monomial degrees ok; "
            f"negative-case residual {v2.max_commutation_residual:.12f} (wants 0.5)")


def test_acceptance_9_one_variable_regression():
    coeff_err = comp_err = 0.0
    for lam in (0.3, 0.5, 0.7):
        cf = charfn_taylor(np.array([[lam]]))
        want = [-lam] + [(1 - lam ** 2) * lam ** (m - 1)
                         for m in range(1, len(cf.taylor))]
        got = [t[0, 0] for t in cf.taylor]
        coeff_err = max(coeff_err, float(np.max(np.abs(np.array(got) - np.array(want)))))
        T = ContractionTuple((np.array([[lam]]),))
        L = build_dilation(T, d=8, adaptive=True)
        comp_err = max(comp_err, max(compressed_tuple_residual(L)))
    _report(9, coeff_err <= 1e-12 and comp_err <= 1e-6,
            f"one-variable regression: symbol coefficients {coeff_err:.3e} (1e-12), "
            f"compressed operator {comp_err:.3e} (1e-6)")


def test_acceptance_10_cli_contract(tmp_path, capsys):
    t0 = time.time()
    demo = str(tmp_path / "demo.json")
    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    codes = [
        main(["demo", "tensor", "--dims", "2,3,2", "--radius", "0.4",
              "--seed", "11", "--out", demo]),
        main(["--format", "json", "suite", demo, "--report", r1]),
        main(["--format", "json", "suite", demo, "--report", r2]),
    ]
    capsys.readouterr()
    identical = Path(r1).read_bytes() == Path(r2).read_bytes()
    doc = json.loads(Path(r1).read_text())
    verdict = doc["verdict"]
    skipped = [c["name"] for c in doc["checks"] if c["status"] == "skipped"]
    elapsed = time.time() - t0
    ok = (codes == [0, 0, 0] and identical and verdict == "pass" and not skipped
          and elapsed <= 120.0)
    _report(10, ok,
            f"CLI pipeline (n=3, dim 12): exit codes {codes}, byte-identical "
            f"reports {identical}, verdict {verdict}, skipped {skipped}, "
            f"{elapsed:.2f}s (limit 120s)")
