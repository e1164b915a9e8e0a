"""Classification of the network: positive recurrence vs transience.

The decision pipeline runs drift table -> sign conditions -> ratio
conditions -> r1 * r2 against 1 with a margin of 1e-9.  Anything that
fails a precondition is Inconclusive with explicit reasons, never a
guess.  On the positive-recurrent side a quadratic Lyapunov certificate
can be constructed and verified in exact arithmetic; the spiral path of the
boundary vector fields gives a geometric reading of r1 * r2 as a
contraction factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolated,
    CertificateNotFound,
    NetdriftError,
    NotConverged,
    SignConditionViolated,
    UnsupportedSubset,
)
from .generator import SUBSET_ALL, check_semi_irreducible
from .induced_chains import (
    CANONICAL_SUBSETS,
    DriftTable,
    _json_safe,
    drift_table,
    nominal_condition,
    subset_name,
)
from .service_disciplines import NetworkModel

SIGN_MARGIN = 1e-9
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

# (subset, queue, required sign) for the ratio criterion to apply
SIGN_CONDITIONS = (
    (SUBSET_ALL, 1, +1),
    (SUBSET_ALL, 2, -1),
    (SUBSET_ALL, 3, +1),
    (SUBSET_ALL, 4, -1),
    (SUBSET_123, 1, -1),
    (SUBSET_123, 2, +1),
    (SUBSET_123, 3, +1),
    (SUBSET_134, 1, +1),
    (SUBSET_134, 3, -1),
    (SUBSET_134, 4, +1),
    (SUBSET_14, 1, +1),
    (SUBSET_14, 4, -1),
    (SUBSET_23, 2, -1),
    (SUBSET_23, 3, +1),
)


# --- the sign gate -----------------------------------------------------------

def check_sign_conditions(table: DriftTable):
    """Evaluate the fourteen drift sign conditions on the primary table.

    A condition within 1e-9 of zero is reported as marginal and counts
    as failed; the ratio criterion is not trusted that close to a zero
    drift.  This is the one sign gate: the verdict reads it, and every
    function below that reads the drift table refuses a table it fails."""
    results = []
    for A, queue, sign in SIGN_CONDITIONS:
        item = {
            "subset": subset_name(A),
            "queue": queue,
            "required": ">0" if sign > 0 else "<0",
        }
        try:
            value = float(table.drifts(A)[queue - 1])
        except (UnsupportedSubset, NotConverged) as exc:
            item.update(value=None, ok=False, marginal=False, note=str(exc))
        else:
            marginal = abs(value) <= SIGN_MARGIN
            ok = (not marginal) and (value > 0) == (sign > 0)
            item.update(value=value, ok=bool(ok), marginal=bool(marginal))
        results.append(item)
    return {"allHold": all(item["ok"] for item in results), "conditions": results}


def _failure(c):
    """Why one sign condition of a `check_sign_conditions` report fails."""
    where = f"queue {c['queue']} on face {c['subset']}"
    if c["value"] is None:
        return f"drift for {where} unavailable: {c['note']}"
    if c["marginal"]:
        return (f"ratio conditions degenerate: drift of {where} is within "
                f"{SIGN_MARGIN:g} of zero")
    return f"sign condition failed: {where} needs {c['required']}, got {c['value']:.6g}"


def _require_signs(table):
    """Raise SignConditionViolated naming every sign condition that does
    not hold: failed, marginal or unavailable."""
    bad = [_failure(c) for c in check_sign_conditions(table)["conditions"]
           if not c["ok"]]
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
    r1_det = (d123[1] * d23[2] - d123[2] * d23[1]) / (d123[0] * d23[1])
    r2_det = (d134[3] * d14[0] - d134[0] * d14[3]) / (d134[2] * d14[3])
    r1_ratio = (d123[1] / -d123[0]) * (d23[2] / -d23[1]) + d123[2] / -d123[0]
    r2_ratio = (d134[3] / -d134[2]) * (d14[0] / -d14[3]) + d134[0] / -d134[2]
    for det, ratio in ((r1_det, r1_ratio), (r2_det, r2_ratio)):
        if abs(det - ratio) > RATIO_FORM_TOL * max(1.0, abs(det)):
            raise NetdriftError(
                f"determinant and ratio forms disagree: {float(det)!r} vs {float(ratio)!r}"
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
    lhs1, rhs1 = abs(dN[0] / dN[3]), abs(d14[0] / d14[3])
    lhs2, rhs2 = abs(dN[2] / dN[1]), abs(d23[2] / d23[1])
    c1, c2 = _compare(lhs1, rhs1), _compare(lhs2, rhs2)
    weak_strict = c1 in ("less", "equal") and c2 == "less"
    strict_weak = c1 == "less" and c2 in ("less", "equal")
    if weak_strict and strict_weak:
        variant = VARIANT_BOTH
    elif weak_strict:
        variant = VARIANT_WEAK_STRICT
    elif strict_weak:
        variant = VARIANT_STRICT_WEAK
    else:
        variant = VARIANT_NEITHER
    return {"variant": variant, "comparisons": [
        {"pair": "q1/q4", "saturated": lhs1, "face": rhs1, "relation": c1},
        {"pair": "q3/q2", "saturated": lhs2, "face": rhs2, "relation": c2},
    ]}


# --- Lyapunov certificate ----------------------------------------------------

def verify_certificate(U, table: DriftTable):
    """Check a quadratic Lyapunov certificate in exact rational arithmetic:
    U exactly symmetric, its four leading minors positive (Sylvester's
    criterion), and each canonical face's drift direction exactly negative
    against every column of U on the face.  Returns (leading minors, inner
    products), each rounded once to float, or raises CertificateNotFound
    naming the first check that fails."""
    from fractions import Fraction  # only a certificate needs exact arithmetic

    rows = [*np.reshape(U, (4, 4)), *map(table.direction, CANONICAL_SUBSETS)]
    if not np.isfinite(rows).all():  # a finite float is a Fraction exactly
        raise CertificateNotFound("an entry of U or of a drift is not finite")
    exact = [[Fraction(x) for x in row] for row in rows]
    M = exact[:4]
    if any(M[i][j] != M[j][i] for i in range(4) for j in range(i)):
        raise CertificateNotFound("U is not exactly symmetric")
    minors, G, minor = [], [row[:] for row in M], Fraction(1)
    for k in range(4):
        # the (k+1)-th leading minor is the product of the first k+1 pivots
        minor *= G[k][k]
        minors.append(float(minor))
        if minor <= 0:
            raise CertificateNotFound(f"leading minor {k + 1} of U is not positive")
        for i in range(k + 1, 4):
            f = G[i][k] / G[k][k]
            for j in range(k + 1, 4):
                G[i][j] -= f * G[k][j]
    inner = []
    for A, d in zip(CANONICAL_SUBSETS, exact[4:]):
        for j in sorted(A):
            # U is symmetric: its column j is its row j
            value = sum(a * u for a, u in zip(d, M[j - 1]))
            if value >= 0:
                raise CertificateNotFound(f"inner product of face {subset_name(A)}'s "
                                          f"drift with column {j} of U is not negative")
            inner.append({"subset": subset_name(A), "column": j, "value": float(value)})
    return minors, inner


@dataclass(slots=True, eq=False)
class LyapunovCertificate:
    """Quadratic form certifying positive recurrence, with the exact
    leading minors and inner products `verify_certificate` returned."""

    U: np.ndarray
    epsilon: float
    delta: float
    leading_minors: list
    inner_products: list
    grid_index: int

    def to_json_dict(self):
        return _json_safe({
            "U": self.U,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "leadingMinors": self.leading_minors,
            "innerProducts": self.inner_products,
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


def lyapunov_certificate(table: DriftTable) -> LyapunovCertificate:
    """Search the construction grid for a certificate that
    `verify_certificate` accepts.

    The diagonal comes from the contraction ratios (geometric-mean
    choice for u22, two-face ratios for u33 and u44); epsilon walks
    down {c 2^-k} with delta = sqrt(epsilon) until the verifier accepts.
    With u33 = (u22 - delta) / r32^2 and u44 = r14^2 (u11 + delta),
    delta^2 = 2^-k c is the quadratic (1 + a) delta^2 - b delta
    - a u11 u22 = 0, where a = 2^-k u11 u22 r14^2 / r32^2 and
    b = a (u22 - u11); its one root in (0, u22) is taken in closed form.
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
    for k in range(1, CERTIFICATE_GRID + 1):
        shrink = 2.0 ** -k
        a = shrink * u11 * u22 * (r14 / r32) ** 2
        b = a * (u22 - u11)
        root = math.sqrt(b * b + 4.0 * (1.0 + a) * a * u11 * u22)
        # the positive root, in the form that subtracts no close numbers
        delta = ((b + root) / (2.0 * (1.0 + a)) if b >= 0.0
                 else 2.0 * a * u11 * u22 / (root - b))
        u33 = (u22 - delta) / r32 ** 2
        u44 = r14 ** 2 * (u11 + delta)
        c = u11 * u22 * u33 * u44
        eps = c * shrink
        U = build_u_matrix((u11, u22, u33, u44), eps, c)
        try:
            return LyapunovCertificate(U, float(eps), float(delta),
                                       *verify_certificate(U, table), k)
        except CertificateNotFound as exc:
            failure = exc
    raise CertificateNotFound(
        "no certificate on the construction grid "
        f"(last epsilon {float(eps)!r}, delta {float(delta)!r}: {failure}); "
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


def spiral_path(table: DriftTable) -> SpiralPath:
    """Trace the piecewise-linear boundary path from (1, 0, 0, 0) around
    to the first axis; the return point contracts by exactly r1 * r2."""
    _require_signs(table)
    point = np.array([1.0, 0.0, 0.0, 0.0])
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
    return SpiralPath(points, times, float(points[-1][0]))


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


def classify(model: NetworkModel, *, mode="both", assume_semi_irreducible=False,
             with_certificate=False, with_spiral=False) -> StabilityReport:
    """Full decision pipeline on one model."""
    rho, nominal = nominal_condition(model)
    reasons = []
    notes = []
    if assume_semi_irreducible:
        irreducibility = "Asserted"
    else:
        irreducibility, why = check_semi_irreducible(model)
        if why:
            reasons.append(f"semi-irreducibility not confirmed: {why}")
    table = drift_table(model, mode=mode)
    notes.extend(table.notes)
    sign_report = check_sign_conditions(table)
    reasons.extend(_failure(c) for c in sign_report["conditions"] if not c["ok"])
    r1 = r2 = r1r2 = None
    ratio_res = None
    verdict = INCONCLUSIVE
    if sign_report["allHold"]:
        ratio_res = check_ratio_conditions(table)
        r1, r2 = compute_r1_r2(table)
        r1r2 = r1 * r2
        if ratio_res["variant"] == VARIANT_NEITHER:
            reasons.append("neither ratio-condition variant holds")
        elif r1r2 < 1.0 - DECISION_MARGIN:
            verdict = POSITIVE_RECURRENT
        elif r1r2 > 1.0 + DECISION_MARGIN:
            verdict = TRANSIENT
        else:
            reasons.append(f"r1*r2 = {r1r2:.12g} lies within {DECISION_MARGIN:g} of 1")
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
