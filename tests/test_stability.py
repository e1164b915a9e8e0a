"""Ratio criterion, Lyapunov certificates, spiral paths, and the full
classification pipeline."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from netdrift import (
    check_ratio_conditions,
    check_sign_conditions,
    classify,
    closed_form_table,
    compute_r1_r2,
    drift_table,
    lyapunov_certificate,
    nominal_condition,
    spiral_path,
    subset_name,
    verify_certificate,
)
from netdrift import induced_chains, stability
from netdrift.cli import parse_model_dict
from netdrift.errors import (
    AssumptionViolated,
    CertificateNotFound,
    NetdriftError,
    SignConditionViolated,
)
from netdrift.stability import SIGN_CONDITIONS, build_u_matrix

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


def test_disagreeing_ratio_forms_name_plain_floats(np_model, monkeypatch):
    # a negative tolerance makes the two forms of r1 disagree
    monkeypatch.setattr(stability, "RATIO_FORM_TOL", -1.0)
    with pytest.raises(NetdriftError) as info:
        compute_r1_r2(closed_table(np_model))
    det, ratio = str(info.value).removeprefix(
        "determinant and ratio forms disagree: ").split(" vs ")
    assert float(det) == pytest.approx(0.7, abs=1e-12), info.value
    assert float(ratio) == pytest.approx(0.7, abs=1e-12), info.value


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

    # a drift within the margin of zero: the ratios refuse it as the
    # spiral path does
    table = closed_table(np_model)
    table.closed[S23].drifts = table.closed[S23].drifts.copy()
    table.closed[S23].drifts[2] = 1e-12
    for consumer in (compute_r1_r2, spiral_path):
        with pytest.raises(SignConditionViolated) as err:
            consumer(table)
        assert str(err.value) == ("ratio conditions degenerate: drift of queue 3 on "
                                  "face 23 is within 1e-09 of zero")


@pytest.mark.parametrize("condition", range(14))
def test_one_sign_gate_refuses_every_marginal_drift(condition):
    # each of the 14 conditions in turn, within the margin of zero on the
    # README model's table: every reader of the table refuses it with the
    # report's own reason
    A, queue, _ = SIGN_CONDITIONS[condition]
    table = closed_table(exp_model(mus=(5.0, 2.4, 5.0, 2.2)))
    table.closed[A].drifts = table.closed[A].drifts.copy()
    table.closed[A].drifts[queue - 1] = 1e-12
    expected = (f"ratio conditions degenerate: drift of queue {queue} on "
                f"face {subset_name(A)} is within 1e-09 of zero")
    report = check_sign_conditions(table)
    assert not report["allHold"]
    assert [c["marginal"] for c in report["conditions"]] == [
        i == condition for i in range(14)]
    for consumer in (compute_r1_r2, check_ratio_conditions, lyapunov_certificate,
                     spiral_path):
        with pytest.raises(SignConditionViolated) as err:
            consumer(table)
        assert str(err.value) == expected


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
    # capped at level 2 on their boxes, faces 14 and 23 have no numeric
    # drift: nothing disagreed, and the note must not say so
    with monkeypatch.context() as m:
        m.setattr(induced_chains, "QBD_PHASES", 0)
        m.setattr(induced_chains, "START_LEVEL", 2)
        m.setattr(induced_chains, "LEVEL_CAP", 2)
        report = classify(exp_model(), mode="both", assume_semi_irreducible=True)
    cross = report.table.cross_check
    assert not cross["ok"] and cross["worst"] is None
    assert cross["subsets"]["14"] is None and cross["subsets"]["23"] is None
    assert report.notes == ["no numeric drift to cross-check on faces 14, 23"]

    # a closed form off by 1% on face N disagrees beyond the tolerance
    closed = induced_chains._closed_rates

    def off_by_one_percent(lam1, lam3, p, mu, K=None):
        out = closed(lam1, lam3, p, mu, K)
        m1, m2, m3, m4 = out[frozenset({1, 2, 3, 4})]
        out[frozenset({1, 2, 3, 4})] = (m1, 1.01 * m2, m3, m4)
        return out

    monkeypatch.setattr(induced_chains, "_closed_rates", off_by_one_percent)
    report = classify(exp_model(), mode="both", assume_semi_irreducible=True)
    cross = report.table.cross_check
    assert not cross["ok"] and cross["subsets"]["N"] > cross["tolerance"]
    assert all(rel <= cross["tolerance"] for name, rel in cross["subsets"].items()
               if name != "N")
    assert report.notes == ["numeric drift table disagrees with the closed form "
                            "beyond 0.0001 relative on faces N"]


def test_cross_check_worst_is_null_unless_every_face_is_checked(monkeypatch):
    # on their boxes, faces 14 and 23 stop at the cap with no numeric
    # drift: the largest difference over the other three faces is not
    # the worst one
    with monkeypatch.context() as m:
        m.setattr(induced_chains, "QBD_PHASES", 0)
        m.setattr(induced_chains, "START_LEVEL", 2)
        m.setattr(induced_chains, "LEVEL_CAP", 2)
        capped = drift_table(exp_model(), mode="both")
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


def _minor_formulas(diag, shrink):
    """Leading minors of `build_u_matrix(diag, shrink * c, c)` in closed
    form: with every off-diagonal shrunk by s = sqrt(1 - shrink), the k-th
    is (prod of the first k diagonal entries) (1 - s)^(k-1) (1 + (k-1) s)."""
    s = np.sqrt(1.0 - shrink)
    prods = np.cumprod(diag)
    return [prods[k - 1] * (1.0 - s) ** (k - 1) * (1.0 + (k - 1) * s) for k in range(1, 5)]


def test_certificate_is_verifiable_evidence(np_model):
    table = closed_table(np_model)
    cert = lyapunov_certificate(table)
    U = np.asarray(cert.U)
    assert np.allclose(U, U.T)
    assert U[0, 0] == 1.0
    assert cert.delta == pytest.approx(np.sqrt(cert.epsilon), rel=1e-12)
    assert verify_certificate(U, table) == (cert.leading_minors, cert.inner_products)
    # the exact minors against float determinants and the closed form
    formulas = _minor_formulas(np.diag(U), 2.0 ** -cert.grid_index)
    for k in range(1, 5):
        det = float(np.linalg.det(U[:k, :k]))
        assert det > 0.0
        assert det == pytest.approx(cert.leading_minors[k - 1], rel=1e-10)
        assert cert.leading_minors[k - 1] == pytest.approx(formulas[k - 1], rel=1e-8)
    assert np.linalg.eigvalsh(U).min() > 0.0
    assert len(cert.inner_products) == 4 + 3 + 3 + 2 + 2
    for item in cert.inner_products:
        assert item["value"] < 0.0
        A = (frozenset({1, 2, 3, 4}) if item["subset"] == "N"
             else frozenset(int(ch) for ch in item["subset"]))
        a = table.direction(A)
        assert item["value"] == pytest.approx(
            float(a @ U[:, item["column"] - 1]), rel=1e-12)


def test_verifier_rejects_a_zero_minor(np_model):
    table = closed_table(np_model)
    U = np.eye(4)
    U[0, 1] = U[1, 0] = 1.0
    with pytest.raises(CertificateNotFound, match="leading minor 2 of U is not positive"):
        verify_certificate(U, table)
    # one ulp on U[1, 1] makes every minor positive (2^-52); a face's drift
    # then fails against this U instead
    U[1, 1] = np.nextafter(1.0, 2.0)
    with pytest.raises(CertificateNotFound, match="inner product of face N's drift"):
        verify_certificate(U, table)


def test_verifier_rejects_a_non_symmetric_u(np_model):
    table = closed_table(np_model)
    U = lyapunov_certificate(table).U.copy()
    U[2, 1] = np.nextafter(U[2, 1], np.inf)
    with pytest.raises(CertificateNotFound, match="U is not exactly symmetric"):
        verify_certificate(U, table)


def test_verifier_rejects_a_non_finite_entry(np_model):
    table = closed_table(np_model)
    U = lyapunov_certificate(table).U.copy()
    U[3, 3] = np.nan
    with pytest.raises(CertificateNotFound, match="not finite"):
        verify_certificate(U, table)


def test_verifier_rejects_a_drift_moved_past_its_bound(np_model):
    # face 14's drift (x, 0, 0, d4) against column 1 of U is x + d4 U41,
    # since U11 = 1; move x one float at a time to where that turns
    # non-negative in exact rational arithmetic
    table = closed_table(np_model)
    U = lyapunov_certificate(table).U
    S14 = frozenset({1, 4})
    d = table.drifts(S14).copy()
    bound = -Fraction(d[3]) * Fraction(U[3, 0])
    d[0] = float(bound)
    while Fraction(d[0]) < bound:
        d[0] = np.nextafter(d[0], np.inf)
    while Fraction(np.nextafter(d[0], -np.inf)) >= bound:
        d[0] = np.nextafter(d[0], -np.inf)

    def moved(drifts):
        entry = induced_chains.DriftEntry(S14, None, None, drifts, "test")
        return dataclasses.replace(table, closed={**table.closed, S14: entry})

    below = [np.nextafter(d[0], -np.inf), *d[1:]]
    _, inner = verify_certificate(U, moved(below))
    assert all(item["value"] < 0.0 for item in inner)
    with pytest.raises(CertificateNotFound) as exc:
        verify_certificate(U, moved(d))
    assert str(exc.value) == ("inner product of face 14's drift with column 1 "
                              "of U is not negative")
    # the other column on face 14 still holds
    assert d[0] * U[0, 3] + d[3] * U[3, 3] < 0.0
    # on the bound itself: with d4 = -2 the product is 2 U41 - 2 U41 = 0
    # exactly, and zero is not negative
    with pytest.raises(CertificateNotFound, match="face 14's drift with column 1"):
        verify_certificate(U, moved([2.0 * U[3, 0], 0.0, 0.0, -2.0]))


README_MODEL = {
    "arrivals": [{"poisson": 0.8}, {"poisson": 0.4}],
    "services": [{"exponential": m} for m in (5.0, 2.4, 5.0, 2.2)],
    "p": 0.3,
    "discipline": "non_preemptive",
}

# the bench's PH/MAP model at seed 1
PHMAP_MODEL = {
    "arrivals": [
        {"mmpp": {"switch": [[-1.9057440389595917, 1.9057440389595917],
                             [1.9057440389595917, -1.9057440389595917]],
                  "rates": [0.35093953592578214, 0.9808542291571738]}},
        {"poisson": 0.4276743416313924},
    ],
    "services": [
        {"erlang": {"phases": 2, "rate": 7.127529432017669}},
        {"hyperexponential": {"weights": [0.42642470999431525, 0.5735752900056847],
                              "rates": [4.809060451983207, 1.131998177423634]}},
        {"exponential": 2.80423834533446},
        {"exponential": 1.4451675582783783},
    ],
    "p": 0.1081522256994661,
    "discipline": "non_preemptive",
}


@pytest.mark.parametrize("name, modes, grid_index", [
    ("readme", ("closed", "numeric"), 5),
    ("preemptive", ("closed", "numeric"), 5),
    ("phmap", ("closed", "numeric"), 4),
    ("sym2", ("closed", "numeric"), 5),
    ("sym3", ("closed", "numeric"), 4),
    ("sym4", ("closed", "numeric"), 7),
    ("sym5", ("closed", "numeric"), 11),
    ("asym4", ("closed", "numeric"), 9),
])
def test_verifier_accepts_the_bench_certificates(name, modes, grid_index):
    if name.startswith("sym"):
        model = symmetric_limited_model(int(name[3:]))
    else:
        model = parse_model_dict({
            "readme": README_MODEL,
            "preemptive": dict(README_MODEL, discipline="preemptive_resume"),
            "phmap": PHMAP_MODEL,
            "asym4": dict(README_MODEL, discipline={"limited": {"K": 4}}),
        }[name])
    for mode in modes:
        table = drift_table(model, mode=mode)
        cert = lyapunov_certificate(table)
        assert cert.grid_index == grid_index, mode
        assert verify_certificate(cert.U, table) == (cert.leading_minors,
                                                     cert.inner_products)


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


def test_near_threshold_limited_model_gets_the_closed_form_verdict():
    # sym K=12 with mu2 = mu4 a hair under the threshold: the closed form
    # gives r1*r2 = 1 + 1.4e-7, Transient.  Solved on boxes, the 2-D
    # faces' truncation put r1*r2 low by about 1e-6 and the verdict on
    # the wrong side; as QBDs (784 phases) they carry round-off alone
    model = symmetric_limited_model(12, mu_batch=1.9047618476190493)
    report = classify(model, mode="numeric", assume_semi_irreducible=True)
    assert report.classification == "Transient"
    assert report.r1r2 == pytest.approx(1.000000137454556, rel=1e-12, abs=0.0)
    for A, entry in report.table.numeric.items():
        if len(A) == 2:
            assert {h[3] for h in entry.diagnostics["history"]} == {"qbd"}, subset_name(A)
