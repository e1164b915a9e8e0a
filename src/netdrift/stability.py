"""Classification of the network: positive recurrence vs transience.

The decision pipeline runs drift table -> sign conditions -> ratio
conditions -> r1 * r2 against 1 with a margin of 1e-9.  Anything that
fails a precondition is Inconclusive with explicit reasons, never a
guess.  On the positive-recurrent side a quadratic Lyapunov certificate
can be constructed and verified explicitly; the spiral path of the
boundary vector fields gives a geometric reading of r1 * r2 as a
contraction factor.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AssumptionViolated,
    CertificateNotFound,
    NetdriftError,
    SignConditionViolated,
)
from .generator import CONFIRMED, SUBSET_ALL, check_semi_irreducible
from .induced_chains import (
    CANONICAL_SUBSETS,
    DriftTable,
    _json_safe,
    check_sign_conditions,
    drift_table,
    nominal_condition,
    subset_name,
)
from .service_disciplines import NetworkModel

DECISION_MARGIN = 1e-9
EQUALITY_TOL = 1e-9
RATIO_FORM_TOL = 1e-10
# epsilon steps c 2^-1 .. c 2^-64 tried by the certificate search
CERTIFICATE_GRID = 64

POSITIVE_RECURRENT = "PositiveRecurrent"
TRANSIENT = "Transient"
INCONCLUSIVE = "Inconclusive"

# first comparison weak and second strict, or the other way around
VARIANT_WEAK_STRICT = "WeakFirstStrictSecond"
VARIANT_STRICT_WEAK = "StrictFirstWeakSecond"
VARIANT_BOTH = "Both"
VARIANT_NEITHER = "Neither"

SUBSET_14 = frozenset((1, 4))
SUBSET_23 = frozenset((2, 3))
SUBSET_123 = frozenset((1, 2, 3))
SUBSET_134 = frozenset((1, 3, 4))


def _failure(c):
    """Why one sign condition of a `check_sign_conditions` report fails."""
    where = f"queue {c['queue']} on face {c['subset']}"
    if c["value"] is None:
        return f"drift for {where} unavailable: {c['note']}"
    if c["marginal"]:
        return (f"ratio conditions degenerate: drift of {where} is within "
                f"{EQUALITY_TOL:g} of zero")
    return f"sign condition failed: {where} needs {c['required']}, got {c['value']:.6g}"


def _require_signs(table, count_marginal=False):
    """Raise SignConditionViolated naming every failed sign condition;
    marginal ones count only with `count_marginal`."""
    bad = [_failure(c) for c in check_sign_conditions(table)["conditions"]
           if not c["ok"] and (count_marginal or not c["marginal"])]
    if bad:
        raise SignConditionViolated("; ".join(bad))


def compute_r1_r2(table: DriftTable):
    """The two contraction ratios, with the determinant and ratio forms
    cross-checked against each other."""
    _require_signs(table)
    d123 = table.drifts(SUBSET_123)
    d134 = table.drifts(SUBSET_134)
    d14 = table.drifts(SUBSET_14)
    d23 = table.drifts(SUBSET_23)
    for name, value in (("q1 on face 123", d123[0]), ("q2 on face 23", d23[1]),
                        ("q3 on face 134", d134[2]), ("q4 on face 14", d14[3])):
        if abs(value) <= EQUALITY_TOL:
            raise SignConditionViolated(f"denominator drift {name} is degenerate")
    r1_det = (d123[1] * d23[2] - d123[2] * d23[1]) / (d123[0] * d23[1])
    r2_det = (d134[3] * d14[0] - d134[0] * d14[3]) / (d134[2] * d14[3])
    r1_ratio = (d123[1] / -d123[0]) * (d23[2] / -d23[1]) + d123[2] / -d123[0]
    r2_ratio = (d134[3] / -d134[2]) * (d14[0] / -d14[3]) + d134[0] / -d134[2]
    for det, ratio in ((r1_det, r1_ratio), (r2_det, r2_ratio)):
        if abs(det - ratio) > RATIO_FORM_TOL * max(1.0, abs(det)):
            raise NetdriftError(
                f"determinant and ratio forms disagree: {det!r} vs {ratio!r}"
            )
    return float(r1_det), float(r2_det)


def _compare(lhs, rhs):
    if abs(lhs - rhs) <= EQUALITY_TOL * max(1.0, abs(lhs), abs(rhs)):
        return "equal"
    return "less" if lhs < rhs else "greater"


def check_ratio_conditions(table: DriftTable):
    """Compare the saturated-interior drift ratios against the two-face
    ones and report which inequality variant holds."""
    _require_signs(table)
    dN = table.drifts(SUBSET_ALL)
    d14 = table.drifts(SUBSET_14)
    d23 = table.drifts(SUBSET_23)
    used = (dN[0], dN[3], d14[0], d14[3], dN[2], dN[1], d23[2], d23[1])
    degenerate = any(abs(v) <= EQUALITY_TOL for v in used)
    result = {
        "degenerate": bool(degenerate),
        "variant": VARIANT_NEITHER,
        "comparisons": [],
    }
    if degenerate:
        return result
    lhs1, rhs1 = abs(dN[0] / dN[3]), abs(d14[0] / d14[3])
    lhs2, rhs2 = abs(dN[2] / dN[1]), abs(d23[2] / d23[1])
    c1, c2 = _compare(lhs1, rhs1), _compare(lhs2, rhs2)
    result["comparisons"] = [
        {"pair": "q1/q4", "saturated": lhs1, "face": rhs1, "relation": c1},
        {"pair": "q3/q2", "saturated": lhs2, "face": rhs2, "relation": c2},
    ]
    weak_strict = c1 in ("less", "equal") and c2 == "less"
    strict_weak = c1 == "less" and c2 in ("less", "equal")
    if weak_strict and strict_weak:
        result["variant"] = VARIANT_BOTH
    elif weak_strict:
        result["variant"] = VARIANT_WEAK_STRICT
    elif strict_weak:
        result["variant"] = VARIANT_STRICT_WEAK
    return result


# --- Lyapunov certificate ----------------------------------------------------

class LyapunovCertificate:
    """Quadratic form certifying positive recurrence, with the explicit
    evidence: leading minors, eigenvalues, and drift inner products."""

    __slots__ = ("U", "epsilon", "delta", "leading_minors", "minor_formulas",
                 "inner_products", "eigenvalues", "grid_index")

    def __init__(self, U, epsilon, delta, leading_minors, minor_formulas,
                 inner_products, eigenvalues, grid_index):
        self.U = U
        self.epsilon = epsilon
        self.delta = delta
        self.leading_minors = leading_minors
        self.minor_formulas = minor_formulas
        self.inner_products = inner_products
        self.eigenvalues = eigenvalues
        self.grid_index = grid_index

    def to_json_dict(self):
        return _json_safe({
            "U": self.U,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "leadingMinors": self.leading_minors,
            "minorFormulas": self.minor_formulas,
            "innerProducts": self.inner_products,
            "eigenvalues": self.eigenvalues,
            "gridIndex": self.grid_index,
        })


def build_u_matrix(diag, epsilon, c):
    """Symmetric matrix with the given diagonal and off-diagonal entries
    sqrt(u_ii u_jj (1 - epsilon/c)); requires 0 <= epsilon <= c."""
    if not 0.0 <= epsilon <= c:
        raise AssumptionViolated(f"epsilon must lie in [0, c]; got {epsilon}, c={c}")
    diag = np.asarray(diag, float)
    s = math.sqrt(1.0 - epsilon / c)
    root = np.sqrt(diag)
    U = s * np.outer(root, root)
    np.fill_diagonal(U, diag)
    return U


def _minor_formulas(diag, shrink):
    """Leading principal minors of the certificate matrix, closed form.

    With every off-diagonal shrunk by s = sqrt(1 - shrink), the k-th
    minor is (prod of the first k diagonal entries) * (1-s)^(k-1) *
    (1+(k-1)s)."""
    s = math.sqrt(1.0 - shrink)
    out = []
    prod = 1.0
    for k in range(1, 5):
        prod *= diag[k - 1]
        out.append(prod * (1.0 - s) ** (k - 1) * (1.0 + (k - 1) * s))
    return out


def lyapunov_certificate(table: DriftTable) -> LyapunovCertificate:
    """Search the construction grid for a verified certificate.

    The diagonal comes from the contraction ratios (geometric-mean
    choice for u22, two-face ratios for u33 and u44); epsilon walks
    down {c 2^-k} with delta = sqrt(epsilon) until every leading minor
    is positive and every recorded drift inner product is negative.
    """
    r1, r2 = compute_r1_r2(table)
    if not r1 * r2 < 1.0:
        raise AssumptionViolated(
            f"certificate construction requires r1*r2 < 1; got {r1 * r2:.6g}"
        )
    d14 = table.drifts(SUBSET_14)
    d23 = table.drifts(SUBSET_23)
    r32 = d23[2] / -d23[1]
    r14 = d14[0] / -d14[3]
    u11 = 1.0
    u22 = (r32 * math.sqrt(r2 / r1)) ** 2
    directions = {A: table.direction(A) for A in CANONICAL_SUBSETS}
    last_eps, last_delta = None, None
    for k in range(1, CERTIFICATE_GRID + 1):
        shrink = 2.0 ** -k
        delta = 0.0
        feasible = True
        u33 = u44 = c = eps = None
        for _ in range(200):
            if u22 - delta <= 0.0:
                feasible = False
                break
            u33 = (u22 - delta) / r32 ** 2
            u44 = r14 ** 2 * (u11 + delta)
            c = u11 * u22 * u33 * u44
            eps = c * shrink
            delta_new = math.sqrt(eps)
            if abs(delta_new - delta) <= 1e-15 * max(1.0, delta_new):
                delta = delta_new
                break
            delta = delta_new
        if not feasible or u22 - delta <= 0.0:
            continue
        u33 = (u22 - delta) / r32 ** 2
        u44 = r14 ** 2 * (u11 + delta)
        c = u11 * u22 * u33 * u44
        eps = c * shrink
        last_eps, last_delta = eps, delta
        diag = (u11, u22, u33, u44)
        U = build_u_matrix(diag, eps, c)
        minors = [float(np.linalg.det(U[:k_, :k_])) for k_ in range(1, 5)]
        formulas = _minor_formulas(diag, shrink)
        if any(m <= 0.0 for m in minors):
            continue
        if any(abs(m - f) > 1e-8 * max(1.0, abs(f)) for m, f in zip(minors, formulas)):
            continue
        eigs = np.linalg.eigvalsh(U)
        if eigs.min() <= 0.0:
            continue
        inner = []
        ok = True
        for A in CANONICAL_SUBSETS:
            a = directions[A]
            for j in sorted(A):
                value = float(a @ U[:, j - 1])
                inner.append({"subset": subset_name(A), "column": j, "value": value})
                if not value < 0.0:
                    ok = False
        if not ok:
            continue
        return LyapunovCertificate(U, float(eps), float(delta), minors, formulas,
                                   inner, eigs.tolist(), k)
    raise CertificateNotFound(
        "no certificate on the construction grid "
        f"(last epsilon {last_eps!r}, delta {last_delta!r}); "
        "the stability margin is thinner than the grid, not refuted"
    )


# --- spiral path --------------------------------------------------------------

class SpiralPath:
    __slots__ = ("points", "times", "contraction")

    def __init__(self, points, times, contraction):
        self.points = points
        self.times = times
        self.contraction = contraction

    def to_json_dict(self):
        return _json_safe({
            "points": [list(p) for p in self.points],
            "times": self.times,
            "contraction": self.contraction,
        })


def spiral_path(table: DriftTable, start=1.0) -> SpiralPath:
    """Trace the piecewise-linear boundary path from the first axis
    around to itself; the return point contracts by exactly r1 * r2."""
    _require_signs(table, count_marginal=True)
    s = float(start)
    if not s > 0.0:
        raise AssumptionViolated("spiral start must be positive")
    point = np.array([s, 0.0, 0.0, 0.0])
    points = [point.copy()]
    times = []
    for A, stop in ((SUBSET_123, 1), (SUBSET_23, 2), (SUBSET_134, 3), (SUBSET_14, 4)):
        a = table.direction(A)
        rate = -a[stop - 1]
        t = point[stop - 1] / rate
        point = point + t * a
        point[stop - 1] = 0.0
        point[np.abs(point) < 1e-15] = 0.0
        points.append(point.copy())
        times.append(float(t))
    return SpiralPath(points, times, float(points[-1][0] / s))


# --- classification -----------------------------------------------------------

class StabilityReport:
    __slots__ = ("rho", "nominal_holds", "semi_irreducibility", "sign_conditions",
                 "ratio_conditions", "r1", "r2", "r1r2", "classification",
                 "reasons", "notes", "table", "certificate", "spiral")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.pop(name))
        if kw:
            raise TypeError(f"unexpected report fields {sorted(kw)}")

    def to_json_dict(self):
        return _json_safe({
            "rho": list(self.rho),
            "nominalHolds": self.nominal_holds,
            "semiIrreducibility": self.semi_irreducibility,
            "signConditions": self.sign_conditions,
            "ratioConditions": self.ratio_conditions,
            "r1": self.r1,
            "r2": self.r2,
            "r1r2": self.r1r2,
            "classification": self.classification,
            "reasons": self.reasons,
            "notes": self.notes,
            "driftTable": self.table.to_json_dict() if self.table else None,
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
            "spiralPath": self.spiral.to_json_dict() if self.spiral else None,
        })


def classify(model: NetworkModel, *, mode="both", levels=8, cap=512,
             margin=DECISION_MARGIN, assume_semi_irreducible=False,
             probe_radius=3, with_certificate=False,
             with_spiral=False) -> StabilityReport:
    """Full decision pipeline on one model."""
    rho, nominal = nominal_condition(model)
    reasons = []
    notes = []
    if assume_semi_irreducible:
        irreducibility = "Asserted"
    else:
        irreducibility = check_semi_irreducible(model, radius=probe_radius)
        if irreducibility != CONFIRMED:
            reasons.append(
                "semi-irreducibility not confirmed by the reachability probe; "
                "rerun with a larger probe radius or assert it explicitly"
            )
    table = drift_table(model, mode=mode, levels=levels, cap=cap)
    notes.extend(table.notes)
    if table.cross_check is not None and not table.cross_check["ok"]:
        notes.append(
            "numeric drift table disagrees with the closed form beyond "
            f"{table.cross_check['tolerance']:g} relative"
        )
    sign_report = check_sign_conditions(table)
    reasons.extend(_failure(c) for c in sign_report["conditions"] if not c["ok"])
    r1 = r2 = r1r2 = None
    ratio_res = None
    verdict = INCONCLUSIVE
    if sign_report["allHold"]:
        ratio_res = check_ratio_conditions(table)
        r1, r2 = compute_r1_r2(table)
        r1r2 = r1 * r2
        # never degenerate here: its 8 drifts are among the 14 that hold
        if ratio_res["variant"] == VARIANT_NEITHER:
            reasons.append("neither ratio-condition variant holds")
        elif r1r2 < 1.0 - margin:
            verdict = POSITIVE_RECURRENT
        elif r1r2 > 1.0 + margin:
            verdict = TRANSIENT
        else:
            reasons.append(f"r1*r2 = {r1r2:.12g} lies within {margin:g} of 1")
    else:
        try:
            r1, r2 = compute_r1_r2(table)
            r1r2 = r1 * r2
        except NetdriftError:
            pass
    if reasons:
        verdict = INCONCLUSIVE
    certificate = None
    if with_certificate and verdict == POSITIVE_RECURRENT:
        try:
            certificate = lyapunov_certificate(table)
        except CertificateNotFound as exc:
            notes.append(str(exc))
    spiral = None
    if with_spiral and sign_report["allHold"]:
        spiral = spiral_path(table)
    return StabilityReport(
        rho=rho, nominal_holds=nominal, semi_irreducibility=irreducibility,
        sign_conditions=sign_report, ratio_conditions=ratio_res,
        r1=r1, r2=r2, r1r2=r1r2, classification=verdict,
        reasons=reasons, notes=notes, table=table,
        certificate=certificate, spiral=spiral,
    )
