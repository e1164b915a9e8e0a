"""Ratio criterion, Lyapunov certificates, spiral paths, and the full
classification pipeline."""

import json

import numpy as np
import pytest

from netdrift import (
    check_ratio_conditions,
    classify,
    closed_form_table,
    compute_r1_r2,
    drift_table,
    lyapunov_certificate,
    nominal_condition,
    spiral_path,
    subset_name,
)
from netdrift import induced_chains
from netdrift.errors import (
    AssumptionViolated,
    CertificateNotFound,
    SignConditionViolated,
)
from netdrift.stability import build_u_matrix

from tests.conftest import exp_model, priority_sample, symmetric_limited_model


S23 = frozenset({2, 3})


def closed_table(model):
    return drift_table(model, mode="closed")


def test_nominal_condition_flag():
    rho, holds = nominal_condition(
        exp_model(lam1=1.0, lam3=0.0, p=1.0, mus=(5.0, 2.0, 5.0, 2.0)))
    assert np.allclose(rho, [0.2, 0.5, 0.2, 0.5])
    assert holds

    rho, holds = nominal_condition(
        exp_model(lam1=1.0, lam3=1.0, mus=(4.0, 1.5, 2.0, 6.0)))
    # station 2 carries rho2 + rho3 = 2/3 + 1.3/2 > 1
    assert rho[1] + rho[2] > 1.0
    assert not holds


def test_ratios_on_reference_model(np_model):
    r1, r2 = compute_r1_r2(closed_table(np_model))
    assert r1 == pytest.approx(0.7, abs=1e-12)
    assert r2 == pytest.approx(0.8 / 1.8, abs=1e-12)


def test_ratios_match_priority_formulas():
    rng = np.random.default_rng(20260814)
    for _ in range(25):
        s = priority_sample(rng)
        lam1, lam3, p = s["lam1"], s["lam3"], s["p"]
        mu = s["mus"]
        model = exp_model(lam1=lam1, lam3=lam3, p=p, mus=mu)
        r1, r2 = compute_r1_r2(closed_table(model))
        assert r1 == pytest.approx((lam3 + p * mu[1]) / (mu[1] - lam1),
                                   rel=1e-12)
        assert r2 == pytest.approx(lam1 / (mu[3] - lam3), rel=1e-12)


def test_alternating_service_ratio_closed_form():
    r1, r2 = compute_r1_r2(closed_table(symmetric_limited_model(2)))
    assert r1 == pytest.approx(r2, abs=1e-12)
    assert r1 == pytest.approx(0.45161290322580655, abs=1e-12)


def test_degenerate_denominator_is_refused(np_model):
    table = closed_table(np_model)
    table.closed[S23].drifts = np.array([0.0, 0.0, 1.12, 0.0])
    with pytest.raises(SignConditionViolated):
        compute_r1_r2(table)


def test_strict_sign_violation_is_refused(np_model):
    table = closed_table(np_model)
    table.closed[S23].drifts = np.array([0.0, 0.5, 1.12, 0.0])
    with pytest.raises(SignConditionViolated):
        compute_r1_r2(table)


def test_sign_guards_speak_as_the_report(np_model):
    table = closed_table(np_model)
    table.closed[S23].drifts = np.array([0.0, 0.5, 1.12, 0.0])
    with pytest.raises(SignConditionViolated) as err:
        compute_r1_r2(table)
    assert str(err.value) == "sign condition failed: queue 2 on face 23 needs <0, got 0.5"

    # a drift within the margin of zero: the ratios tolerate it, the
    # spiral path does not
    table = closed_table(np_model)
    table.closed[S23].drifts = table.closed[S23].drifts.copy()
    table.closed[S23].drifts[2] = 1e-12
    compute_r1_r2(table)
    with pytest.raises(SignConditionViolated) as err:
        spiral_path(table)
    assert str(err.value) == ("ratio conditions degenerate: drift of queue 3 on "
                              "face 23 is within 1e-09 of zero")


def test_ratio_condition_variants(np_model):
    assert check_ratio_conditions(closed_table(np_model))["variant"] == "Both"

    # with lam3 = 0 the first comparison ties and the second is strict
    feedback_only = exp_model(lam1=0.8, lam3=0.0, p=0.3)
    res = check_ratio_conditions(closed_table(feedback_only))
    assert res["variant"] == "WeakFirstStrictSecond"
    assert res["comparisons"][0]["relation"] == "equal"

    # the mirrored variant needs a tie in the second pair only
    table = closed_table(np_model)
    d23 = table.closed[S23].drifts
    table.closed[S23].drifts = np.array(
        [0.0, d23[1], abs(d23[1]) * (1.12 / 2.4), 0.0])
    res = check_ratio_conditions(table)
    assert res["variant"] == "StrictFirstWeakSecond"
    assert res["comparisons"][1]["relation"] == "equal"


def test_classification_both_sides(np_model):
    report = classify(np_model, mode="closed", assume_semi_irreducible=True)
    assert report.classification == "PositiveRecurrent"
    assert report.r1r2 == pytest.approx(0.7 * 0.8 / 1.8, abs=1e-12)
    assert report.nominal_holds

    transient = exp_model(lam1=1.0, lam3=0.55, p=0.0,
                          mus=(4.0, 2.0, 2.1, 0.55 / 0.6))
    rho, holds = nominal_condition(transient)
    assert holds and rho[1] + rho[3] == pytest.approx(1.1, abs=1e-12)
    report = classify(transient, mode="closed", assume_semi_irreducible=True)
    assert report.classification == "Transient"
    assert report.r1r2 > 1.0


def test_probe_and_numeric_table_share_one_kernel(np_model, kernel_builds):
    report = classify(np_model, mode="both")
    assert report.semi_irreducibility == "ConfirmedSemiIrreducible"
    assert report.table.numeric is not None
    assert len(kernel_builds) == 1


def test_cross_check_note_separates_missing_faces_from_disagreement(monkeypatch):
    # capped at level 2, faces 14 and 23 have no numeric drift: nothing
    # disagreed, and the note must not say so
    report = classify(exp_model(), mode="both", levels=2, cap=2,
                      assume_semi_irreducible=True)
    cross = report.table.cross_check
    assert not cross["ok"] and cross["worst"] is None
    assert cross["subsets"]["14"] is None and cross["subsets"]["23"] is None
    assert report.notes == ["no numeric drift to cross-check on faces 14, 23"]

    # a closed form off by 1% on face N disagrees beyond the tolerance
    closed = induced_chains._priority_closed

    def off_by_one_percent(lam1, lam3, mu):
        out = closed(lam1, lam3, mu)
        m1, m2, m3, m4 = out[frozenset({1, 2, 3, 4})]
        out[frozenset({1, 2, 3, 4})] = (m1, 1.01 * m2, m3, m4)
        return out

    monkeypatch.setattr(induced_chains, "_priority_closed", off_by_one_percent)
    report = classify(exp_model(), mode="both", assume_semi_irreducible=True)
    cross = report.table.cross_check
    assert not cross["ok"] and cross["subsets"]["N"] > cross["tolerance"]
    assert all(rel <= cross["tolerance"] for name, rel in cross["subsets"].items()
               if name != "N")
    assert report.notes == ["numeric drift table disagrees with the closed form "
                            "beyond 0.0001 relative on faces N"]


def test_cross_check_worst_is_null_unless_every_face_is_checked():
    # faces 14 and 23 stop at the cap with no numeric drift: the largest
    # difference over the other three faces is not the worst one
    capped = drift_table(exp_model(), mode="both", levels=2, cap=2)
    assert capped.to_json_dict()["crossCheck"]["worst"] is None
    full = drift_table(exp_model(), mode="both").cross_check
    assert full["worst"] == max(full["subsets"].values())


def test_silent_first_stream_is_inconclusive():
    report = classify(exp_model(lam1=0.0), mode="closed",
                      assume_semi_irreducible=True)
    assert report.classification == "Inconclusive"
    assert any("ratio conditions degenerate" in r for r in report.reasons)


def test_verdict_tracks_station_two_load():
    # the ratio test must agree with the sign of 1 - rho2 - rho4
    rng = np.random.default_rng(7)
    for _ in range(15):
        s = priority_sample(rng)
        model = exp_model(lam1=s["lam1"], lam3=s["lam3"], p=s["p"],
                          mus=s["mus"])
        report = classify(model, mode="closed", assume_semi_irreducible=True)
        expected = ("PositiveRecurrent" if s["rho"][1] + s["rho"][3] < 1.0
                    else "Transient")
        assert report.classification == expected, (s, report.r1r2)


def test_classification_is_scale_invariant(np_model):
    # scaling every rate scales time alone: in numeric mode the faces
    # also grow through the same levels
    def histories(report):
        if report.table.numeric is None:
            return None
        return {subset_name(A): [h[0] for h in e.diagnostics["history"]]
                for A, e in report.table.numeric.items()}

    for mode in ("closed", "numeric"):
        base = classify(np_model, mode=mode, assume_semi_irreducible=True)
        for c in (0.1, 10.0):
            scaled = exp_model(lam1=0.8 * c, lam3=0.4 * c,
                               mus=(4.0 * c, 2.4 * c, 4.2 * c, 2.2 * c))
            report = classify(scaled, mode=mode, assume_semi_irreducible=True)
            assert report.classification == base.classification, mode
            assert report.r1r2 == pytest.approx(base.r1r2, rel=1e-12), mode
            assert histories(report) == histories(base), mode


def test_certificate_is_verifiable_evidence(np_model):
    table = closed_table(np_model)
    cert = lyapunov_certificate(table)
    U = np.asarray(cert.U)
    assert np.allclose(U, U.T)
    assert U[0, 0] == 1.0
    assert cert.delta == pytest.approx(np.sqrt(cert.epsilon), rel=1e-12)
    # minors: recompute from scratch and against the closed formulas
    for k in range(1, 5):
        det = float(np.linalg.det(U[:k, :k]))
        assert det > 0.0
        assert det == pytest.approx(cert.leading_minors[k - 1], rel=1e-10)
        assert det == pytest.approx(cert.minor_formulas[k - 1], rel=1e-8)
    eigs = np.linalg.eigvalsh(U)
    assert eigs.min() > 0.0
    assert np.allclose(sorted(cert.eigenvalues), eigs, rtol=1e-10)
    assert len(cert.inner_products) == 4 + 3 + 3 + 2 + 2
    for item in cert.inner_products:
        assert item["value"] < 0.0
        A = (frozenset({1, 2, 3, 4}) if item["subset"] == "N"
             else frozenset(int(ch) for ch in item["subset"]))
        a = table.direction(A)
        assert item["value"] == pytest.approx(
            float(a @ U[:, item["column"] - 1]), rel=1e-12)


def test_certificate_delta_is_the_exact_root():
    # delta = sqrt(2^-k c(delta)) iterated from 0 passes u22 at steps 1-5 of
    # this model, so an iteration skips them and first verifies at step 6
    model = exp_model("non_preemptive", lam1=0.499136, lam3=0.524591, p=0.035291,
                      mus=(8.148074, 7.957751, 4.556429, 1.111081))
    cert = lyapunov_certificate(closed_table(model))
    assert cert.grid_index == 4
    assert cert.delta ** 2 == pytest.approx(cert.epsilon, rel=1e-13)


def test_certificate_requires_contracting_ratios():
    transient = exp_model(lam1=1.0, lam3=0.55, p=0.0,
                          mus=(4.0, 2.0, 2.1, 0.55 / 0.6))
    with pytest.raises(AssumptionViolated):
        lyapunov_certificate(closed_table(transient))


def test_u_matrix_edge_cases():
    diag = [1.0, 0.5, 0.25, 2.0]
    # epsilon = 0 collapses U to a rank-one form
    U0 = build_u_matrix(diag, 0.0, 4.0)
    assert abs(np.linalg.det(U0[:2, :2])) <= 1e-15
    # epsilon = c removes the off-diagonal entirely
    Uc = build_u_matrix(diag, 4.0, 4.0)
    assert np.allclose(Uc, np.diag(diag))
    with pytest.raises(AssumptionViolated):
        build_u_matrix(diag, 5.0, 4.0)
    with pytest.raises(AssumptionViolated):
        build_u_matrix(diag, -1.0, 4.0)


def test_spiral_path_geometry(np_model):
    table = closed_table(np_model)
    path = spiral_path(table)
    r1, r2 = compute_r1_r2(table)
    assert len(path.points) == 5 and len(path.times) == 4
    assert np.allclose(path.points[0], [1.0, 0.0, 0.0, 0.0])
    # after the first two faces the state returns to an axis, scaled by r1
    assert np.allclose(path.points[2], [0.0, 0.0, r1, 0.0], atol=1e-12)
    assert np.allclose(path.points[4], [r1 * r2, 0.0, 0.0, 0.0], atol=1e-12)
    assert path.contraction == pytest.approx(r1 * r2, abs=1e-10)
    assert all(t > 0 for t in path.times)


def test_spiral_contraction_for_alternating_service():
    table = closed_table(symmetric_limited_model(2))
    r1, r2 = compute_r1_r2(table)
    assert spiral_path(table).contraction == pytest.approx(r1 * r1, abs=1e-10)
    assert r1 == r2


def test_spiral_contraction_random_tables():
    rng = np.random.default_rng(99)
    for _ in range(20):
        s = priority_sample(rng)
        table = closed_table(exp_model(lam1=s["lam1"], lam3=s["lam3"],
                                       p=s["p"], mus=s["mus"]))
        r1, r2 = compute_r1_r2(table)
        assert spiral_path(table).contraction == pytest.approx(
            r1 * r2, abs=1e-10)


def test_report_serializes_to_plain_json(np_model):
    report = classify(np_model, mode="closed", assume_semi_irreducible=True,
                      with_certificate=True, with_spiral=True)
    blob = report.to_json_dict()
    text = json.dumps(blob)
    back = json.loads(text)
    assert set(back) == {
        "rho", "nominalHolds", "semiIrreducibility", "signConditions",
        "ratioConditions", "r1", "r2", "r1r2", "classification", "reasons",
        "notes", "driftTable", "certificate", "spiralPath",
    }
    assert back["classification"] == "PositiveRecurrent"
    assert back["semiIrreducibility"] == "Asserted"
    assert back["certificate"]["epsilon"] > 0
    assert back["spiralPath"]["contraction"] == pytest.approx(
        report.r1r2, abs=1e-10)


def test_marginal_product_is_inconclusive():
    # the README model with mu4 = (p * lam1 + lam3) / (1 - lam1 / mu2) =
    # 0.96 sits on the threshold rho2 + rho4 = 1: its closed-form r1*r2
    # is 1 up to rounding, within DECISION_MARGIN of it
    model = exp_model(mus=(5.0, 2.4, 5.0, 0.96))
    report = classify(model, mode="closed", assume_semi_irreducible=True)
    assert abs(report.r1r2 - 1.0) <= 1e-12
    assert report.classification == "Inconclusive"
    assert any("lies within 1e-09 of 1" in r for r in report.reasons)
