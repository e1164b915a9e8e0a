"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test prints one `criterion N ...: PASS/FAIL` line so the gate can
be read off a plain `pytest -v` run.  Runtime bounds are asserted with
wall-clock measurements on the same call the criterion names.
"""

import itertools
import json
import time

import numpy as np
import pytest

from netdrift import (
    CANONICAL_SUBSETS,
    classify,
    compute_r1_r2,
    check_ratio_conditions,
    drift_table,
    estimate_drift,
    kernel_of,
    lyapunov_certificate,
    simulate,
    simulate_saturated,
    spiral_path,
    verify_certificate,
)
from netdrift.cli import main

from tests.conftest import (
    dense_block,
    exp_model,
    lattice_csr,
    priority_sample,
    symmetric_limited_model,
)


N = frozenset({1, 2, 3, 4})


def report(number, text, ok):
    print(f"\ncriterion {number} ({text}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {text}"


def limited_ratio(K, rho1=0.2, rho2=5.0 / 9.0):
    return (rho1 + K * rho2 - 1.0) / (-rho1 + K * (1.0 - rho2))


@pytest.fixture(scope="module")
def both_mode_tables():
    """Numeric-vs-closed tables for the three disciplines (criteria 3, 5)."""
    models = {
        "non_preemptive": exp_model("non_preemptive"),
        "preemptive_resume": exp_model("preemptive_resume"),
        "limited": symmetric_limited_model(3),
    }
    started = time.perf_counter()
    tables = {name: drift_table(m, mode="both")
              for name, m in models.items()}
    return tables, time.perf_counter() - started


@pytest.fixture(scope="module")
def priority_verdicts():
    """50 random priority configurations and their classifications
    (criteria 2 and 6 share them)."""
    rng = np.random.default_rng(20260814)
    rows = []
    started = time.perf_counter()
    for _ in range(50):
        s = priority_sample(rng)
        reports = {}
        for discipline in ("non_preemptive", "preemptive_resume"):
            model = exp_model(discipline, lam1=s["lam1"], lam3=s["lam3"],
                              p=s["p"], mus=s["mus"])
            reports[discipline] = classify(model, mode="closed",
                                           assume_semi_irreducible=True)
        rows.append((s, reports))
    return rows, time.perf_counter() - started


def test_criterion_1_limited_sweep(tmp_path):
    model = {
        "arrivals": [{"poisson": 1.0}, {"poisson": 1.0}],
        "services": [{"exponential": 5.0}, {"exponential": 1.8},
                     {"exponential": 5.0}, {"exponential": 1.8}],
        "discipline": {"limited": {"K": 2}},
        "p": 0.0,
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(
        {"parameter": "discipline.K", "values": list(range(2, 9))}))
    out_csv = tmp_path / "sweep.csv"

    started = time.perf_counter()
    code = main(["sweep", str(model_path), str(sweep_path),
                 "--out", str(out_csv)])
    elapsed = time.perf_counter() - started

    rows = [line.split(",", 5) for line in
            out_csv.read_text().splitlines()[1:]]
    verdicts = {int(float(r[0])): r[4] for r in rows}
    closed_ok = (
        code == 0
        and all(verdicts[K] == "PositiveRecurrent" for K in (2, 3, 4, 5))
        and all(verdicts[K] == "Transient" for K in (6, 7, 8))
        and all(float(r[3]) == pytest.approx(limited_ratio(int(float(r[0]))) ** 2,
                                             rel=1e-12)
                for r in rows)
    )

    # numeric mode agreement, spot-checked on each side of the threshold
    numeric_ok = True
    for K in (2, 6):
        table = drift_table(symmetric_limited_model(K), mode="numeric")
        r1, r2 = compute_r1_r2(table)
        if abs(r1 * r2 - limited_ratio(K) ** 2) > 1e-4 * limited_ratio(K) ** 2:
            numeric_ok = False

    report(1, f"K-sweep thresholds, sweep in {elapsed:.1f}s",
           closed_ok and numeric_ok and elapsed < 10.0)


def test_criterion_2_priority_threshold(priority_verdicts):
    rows, elapsed = priority_verdicts
    ok = elapsed < 30.0
    for s, reports in rows:
        load = s["rho"][1] + s["rho"][3]
        if abs(load - 1.0) <= 1e-6:
            continue
        expected = "PositiveRecurrent" if load < 1.0 else "Transient"
        for discipline, rep in reports.items():
            if rep.classification != expected:
                ok = False
    report(2, f"50 priority configs in {elapsed:.1f}s", ok)


def test_criterion_3_numeric_matches_closed(both_mode_tables):
    tables, elapsed = both_mode_tables
    ok = elapsed < 300.0
    for name, table in tables.items():
        cross = table.cross_check
        if cross is None or not cross["ok"] or cross["worst"] > 1e-4:
            ok = False
    report(3, f"three disciplines cross-checked in {elapsed:.1f}s", ok)


def test_criterion_4_generator_soundness(np_model):
    kernel = kernel_of(np_model)
    L, S0 = 4, kernel.S0
    Q = lattice_csr(lambda s: kernel.q_blocks(s), (L,) * 4, S0)
    q_rows = np.abs(np.asarray(Q.sum(axis=1)).ravel())
    ok = q_rows.max() <= 1e-10

    rng = np.random.default_rng(4)
    for _ in range(200):
        sig = tuple(rng.integers(0, 3, size=4))
        x = tuple(int(c) if c < 2 else int(2 + rng.integers(0, 40))
                  for c in sig)
        y = tuple(int(c) if c < 2 else int(2 + rng.integers(0, 40))
                  for c in sig)
        for z in ((0, 0, 0, 0), (1, 0, 0, 0), (0, -1, 1, 0), (0, 0, 0, -1)):
            xp = tuple(a + d for a, d in zip(x, z))
            yp = tuple(a + d for a, d in zip(y, z))
            if any(v < 0 for v in xp + yp):
                continue
            bx = dense_block(np_model, x, xp)
            by = dense_block(np_model, y, yp)
            if not np.array_equal(bx, by):
                ok = False
    report(4, "generator rows conserve and blocks are face-homogeneous", ok)


def test_criterion_5_off_subset_drift(both_mode_tables):
    tables, _ = both_mode_tables
    worst = 0.0
    for table in tables.values():
        for A in CANONICAL_SUBSETS:
            entry = table.numeric[A]
            if entry.drifts is None:
                worst = np.inf
                continue
            worst = max(worst, entry.diagnostics["offSubsetDriftMax"])
    report(5, f"max off-subset drift {worst:.2e}", worst <= 1e-5)


def test_criterion_6_certificates(priority_verdicts):
    checked = 0
    ok = True

    def verify(table):
        nonlocal checked, ok
        r1, r2 = compute_r1_r2(table)
        if not r1 * r2 < 0.95:
            return
        checked += 1
        cert = lyapunov_certificate(table)
        assert verify_certificate(cert.U, table) == (cert.leading_minors,
                                                     cert.inner_products)
        # float determinants and eigenvalues as an independent reference
        U = np.asarray(cert.U)
        minors = [float(np.linalg.det(U[:k, :k])) for k in range(1, 5)]
        if not all(m > 0 for m in minors):
            ok = False
        if not np.linalg.eigvalsh(U).min() > 0:
            ok = False
        if not all(item["value"] < 0 for item in cert.inner_products):
            ok = False

    for K in range(2, 6):
        verify(drift_table(symmetric_limited_model(K), mode="closed"))
    rows, _ = priority_verdicts
    for s, reports in rows:
        rep = reports["non_preemptive"]
        if rep.classification == "PositiveRecurrent":
            verify(rep.table)

    report(6, f"{checked} certificates verified", ok and checked >= 10)


def test_criterion_7_spiral_identity():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(20):
        s = priority_sample(rng)
        table = drift_table(
            exp_model(lam1=s["lam1"], lam3=s["lam3"], p=s["p"], mus=s["mus"]),
            mode="closed")
        r1, r2 = compute_r1_r2(table)
        if abs(spiral_path(table).contraction - r1 * r2) > 1e-10:
            ok = False
    report(7, "spiral contraction equals r1*r2 on 20 tables", ok)


def test_criterion_8_simulator_corroboration(np_model):
    started = time.perf_counter()
    traj = simulate_saturated(np_model, N, horizon=100_000.0, seed=12345)
    est = estimate_drift(traj)
    saturated_elapsed = time.perf_counter() - started
    target = [0.0, 2.4, 0.0, 2.2]
    sat_ok = all(
        abs(est.departure_rates[i] - target[i])
        <= 3.0 * est.departure_rate_half_widths[i] + 1e-9
        for i in range(4)
    )

    # overloaded station 2 (rho2 + rho3 = 1.2) with fast station 1, so
    # the backlog accumulates in queues 2 + 3 rather than cycling
    transient = exp_model(lam1=1.2, lam3=1.26, p=0.0,
                          mus=(50.0, 2.0, 2.1, 50.0))
    started = time.perf_counter()
    t_traj = simulate(transient, 20_000.0, seed=12345)
    t_est = estimate_drift(t_traj)
    transient_elapsed = time.perf_counter() - started
    combined = t_est.slopes[1] + t_est.slopes[2]
    noise = t_est.slope_half_widths[1] + t_est.slope_half_widths[2]
    growth_ok = combined - noise > 0.0

    report(8, f"saturated run {saturated_elapsed:.0f}s, transient run "
              f"{transient_elapsed:.0f}s",
           sat_ok and growth_ok
           and saturated_elapsed < 120.0 and transient_elapsed < 120.0)


def test_criterion_9_scaling_invariance():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(20):
        s = priority_sample(rng)
        variants = {}
        for c in (1.0, 0.1, 10.0):
            model = exp_model(
                lam1=s["lam1"] * c, lam3=s["lam3"] * c, p=s["p"],
                mus=tuple(m * c for m in s["mus"]))
            table = drift_table(model, mode="closed")
            r1, r2 = compute_r1_r2(table)
            ratio = check_ratio_conditions(table)
            rep = classify(model, mode="closed", assume_semi_irreducible=True)
            variants[c] = (r1, r2, ratio["variant"], rep.classification)
        base = variants[1.0]
        for c in (0.1, 10.0):
            r1, r2, variant, verdict = variants[c]
            if variant != base[2] or verdict != base[3]:
                ok = False
            if abs(r1 - base[0]) > 1e-9 * max(1.0, abs(base[0])):
                ok = False
            if abs(r2 - base[1]) > 1e-9 * max(1.0, abs(base[1])):
                ok = False
    report(9, "r1, r2, variants and verdicts invariant under c in {0.1, 10}",
           ok)
