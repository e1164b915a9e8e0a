"""Markovian service process (MSP) builders for one two-class station.

Each station serves a background class and a priority/batch class.  The
MSP tracks the server state while the two queue lengths are frozen in
one of the occupancy regimes 0 / positive.  Matrices come in three
families, all indexed by the regime pair (background count, other
count) where "0" means empty and "+" means at least one:

* ``t["ab"]``      phase transitions without a service completion,
* ``t["1*b"]``, ``t["2*b"]``, ``t["a1*"]``, ``t["a2*"]``
                   completion rates; the starred position says which
                   class completed and whether its pre-completion count
                   was exactly one (``1*``) or at least two (``2*``),
* ``u["a*b"]``, ``u["ab*"]``
                   row-stochastic phase updates at an arrival instant,
                   starred position marks the arriving class.

States that cannot occur in a regime (e.g. a busy-server phase while
both queues are empty) are placeholders.  They drain back to a real
state at rate one so that every composite generator stays conservative;
those placeholder rates never influence long-run drifts because the
placeholder states are left immediately and never re-entered.

Station 1 uses (background, other) = (class 1, class 4); station 2 uses
(class 3, class 2).  The same builders serve both stations through that
role swap.  Non-preemptive priority to the other class is (1,K)-limited
service with no visit budget, so one builder writes both.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    GeneratorRowSumNonzero,
    InvalidK,
    NegativeOffDiagonal,
    NegativeProbability,
    NegativeRate,
    NetdriftError,
    NonStochasticU,
)
from .primitives import MAX_PHASES, MAPSpec, PHSpec, ZERO_TOL, map_arrival_rate, ph_mean

T_KEYS = ("00", "+0", "0+", "++", "1*0", "2*0", "01*", "02*", "1*+", "2*+", "+1*", "+2*")
U_KEYS = ("0*0", "00*", "+*0", "+0*", "0*+", "0+*", "+*+", "++*")

# composite generators that must be conservative: a no-completion matrix
# plus every completion matrix that can fire in the same regime
COMPOSITES = (
    ("+0", ("1*0",)),
    ("+0", ("2*0",)),
    ("0+", ("01*",)),
    ("0+", ("02*",)),
    ("++", ("1*+", "+1*")),
    ("++", ("1*+", "+2*")),
    ("++", ("2*+", "+1*")),
    ("++", ("2*+", "+2*")),
)

class MSPSpec:
    """Validated Markovian service process for one station."""

    __slots__ = ("n", "s_lo", "s_hi", "t", "u", "kind")

    def __init__(self, n, s_lo, s_hi, t, u, kind):
        self.n = n
        self.s_lo = s_lo
        self.s_hi = s_hi
        self.t = t
        self.u = u
        self.kind = kind

    def __repr__(self):  # pragma: no cover
        return f"MSPSpec(kind={self.kind!r}, n={self.n})"


def _layout(ph_lo: PHSpec, ph_hi: PHSpec, blocks: int):
    """The state layout every built-in discipline shares, [idle |
    background phases | `blocks` blocks of other-class phases], with the
    rules all of them obey already written in.

    Returns (n, lo, blk, t, u): `lo` slices the background phases and
    `blk(j)` the j-th other-class block.  The caller adds its own rules.
    """
    s1, s4 = ph_lo.dim, ph_hi.dim
    n = 1 + s1 + blocks * s4
    if n > MAX_PHASES:
        raise DimensionMismatch(f"{n:,} service states is over MAX_PHASES = {MAX_PHASES}")
    lo = slice(1, 1 + s1)
    b1 = ph_lo.beta

    def blk(j):
        a = 1 + s1 + j * s4
        return slice(a, a + s4)

    t = {k: np.zeros((n, n)) for k in T_KEYS}
    # both queues empty: every busy phase is a placeholder draining to idle
    t["00"][1:, 0] = 1.0
    t["00"][1:, 1:] = -np.eye(n - 1)
    # idle is a placeholder whenever a queue is non-empty
    for key in ("+0", "0+", "++"):
        t[key][0, 0] = -1.0
    # background busy, other queue empty
    t["+0"][0, lo] = b1
    t["+0"][lo, lo] = ph_lo.H
    t["1*0"][lo, 0] = ph_lo.h
    t["2*0"][lo, lo] = np.outer(ph_lo.h, b1)
    # background queue empty: its phases are placeholders
    t["0+"][lo, lo] = -np.eye(s1)
    for j in range(blocks):
        b = blk(j)
        # other queue empty: a placeholder block, left at rate one to
        # where the caller says
        t["+0"][b, b] = -np.eye(s4)
        # other class in service; its last job leaving idles the server
        t["0+"][b, b] = t["++"][b, b] = ph_hi.H
        t["01*"][b, 0] = ph_hi.h

    # a background arrival to an empty system starts service at once; an
    # arrival that finds the server busy leaves its state alone
    u = {key: np.eye(n) for key in ("+*0", "+0*", "0*+", "0+*", "+*+", "++*")}
    u["0*0"] = np.zeros((n, n))
    u["0*0"][:, lo] = b1
    u["00*"] = np.zeros((n, n))
    return n, lo, blk, t, u


def _alternating_msp(ph_lo: PHSpec, ph_hi: PHSpec, K: int | None) -> MSPSpec:
    """(1,K)-limited alternation; with K None (no visit budget) it is
    non-preemptive priority to the other class.

    State layout: [idle | background phases | slot 1 .. slot K], slot j
    holding the phases of the j-th other-class service of the current
    visit (one slot when K is None).
    """
    slots = K or 1
    n, lo, slot, t, u = _layout(ph_lo, ph_hi, slots)
    first = slot(0)
    b1, H1, h1 = ph_lo.beta, ph_lo.H, ph_lo.h
    b4, h4 = ph_hi.beta, ph_hi.h

    # a visit starts at slot 1: from idle or a background placeholder, or
    # when a background service ends with the other queue busy; an
    # ongoing background service is never interrupted
    t["0+"][:first.start, first] = b4
    t["++"][0, first] = b4
    t["++"][lo, lo] = H1
    t["1*+"][lo, first] = t["2*+"][lo, first] = np.outer(h1, b4)
    for j in range(slots):
        # no other-class job left (a placeholder slot, or the last one
        # done): serve the background class
        t["+0"][slot(j), lo] = b1
        t["+1*"][slot(j), lo] = np.outer(h4, b1)
        # more of the other class: the next slot, slot K wrapping to slot 1
        # (an empty background queue is skipped; no budget keeps one slot)
        nxt = slot((j + 1) % slots)
        t["02*"][slot(j), nxt] = np.outer(h4, b4)
        if j + 1 == K:
            # visit budget spent: switch to the background class
            t["+2*"][slot(j), lo] = np.outer(h4, b1)
        else:
            t["+2*"][slot(j), nxt] = np.outer(h4, b4)

    u["00*"][:, first] = b4
    kind = "non_preemptive" if K is None else f"limited:{K}"
    return validate_msp(MSPSpec(n, ph_lo.dim, ph_hi.dim, t, u, kind))


def build_nonpreemptive_msp(ph_lo: PHSpec, ph_hi: PHSpec) -> MSPSpec:
    """Non-preemptive priority: the other class is served whenever present,
    but a background service in progress is never interrupted.  This is
    (1,K)-limited alternation with no visit budget.

    State layout: [idle | background phases | other phases].
    """
    return _alternating_msp(ph_lo, ph_hi, None)


def build_preemptive_resume_msp(ph_lo: PHSpec, ph_hi: PHSpec) -> MSPSpec:
    """Preemptive-resume priority: an arriving other-class customer
    interrupts a background service, which later resumes in the phase it
    was cut off in.

    State layout: [idle | background phases | one other-phase block per
    interrupted background phase k].  Block k means "serving the other
    class, background service frozen in phase k".
    """
    s1 = ph_lo.dim
    n, lo, blk, t, u = _layout(ph_lo, ph_hi, s1)
    b1 = ph_lo.beta
    b4, h4 = ph_hi.beta, ph_hi.h

    # both busy: the other class holds the server, so the background
    # phases are placeholders
    t["++"][lo, lo] = -np.eye(s1)
    u["+0*"] = np.zeros((n, n))
    for k in range(s1):
        b = blk(k)
        # placeholder interrupted blocks resume background phase k
        t["+0"][b, 1 + k] = 1.0
        for key in ("0+", "++"):
            # with no background service in progress the frozen phase is
            # drawn fresh
            t[key][:1 + s1, b] = b1[k] * b4
        t["02*"][b, b] = t["+2*"][b, b] = np.outer(h4, b4)
        # background service cannot complete while interrupted, so
        # t["1*+"] and t["2*+"] stay zero
        t["+1*"][b, 1 + k] = h4
        u["00*"][:, b] = b1[k] * b4
        # an other-class arrival during a background service interrupts
        # it at the current phase
        u["+0*"][0, b] = b1[k] * b4
        u["+0*"][1 + k, b] = b4
        u["+0*"][b, b] = np.eye(ph_hi.dim)

    return validate_msp(MSPSpec(n, s1, ph_hi.dim, t, u, "preemptive_resume"))


def build_limited_msp(ph_lo: PHSpec, ph_hi: PHSpec, K: int) -> MSPSpec:
    """(1,K)-limited alternation: the server takes one background job,
    then up to K other-class jobs, and keeps cycling.  Empty queues are
    skipped without switchover time.
    """
    if not isinstance(K, (int, np.integer)) or isinstance(K, bool) or K < 1:
        raise InvalidK(f"K must be an integer >= 1, got {K!r}")
    return _alternating_msp(ph_lo, ph_hi, int(K))


def validate_msp(spec: MSPSpec) -> MSPSpec:
    """Structural checks on an MSP: shapes, finite entries, sign patterns,
    stochastic U rows, and conservation of all composite generators
    (tolerance 1e-12).
    """
    n = spec.n
    for name, mats, keys in (("t", spec.t, T_KEYS), ("u", spec.u, U_KEYS)):
        for key in keys:
            if key not in mats:
                raise DimensionMismatch(f"missing matrix {name}[{key!r}]")
            M = np.asarray(mats[key], dtype=float)
            if M.shape != (n, n):
                raise DimensionMismatch(f"{name}[{key!r}] has shape {M.shape}, expected {(n, n)}")
            if not np.all(np.isfinite(M)):
                raise NegativeRate(f"{name}[{key!r}] contains non-finite entries")
            mats[key] = M

    for key in ("00", "+0", "0+", "++"):
        M = spec.t[key]
        off = M - np.diag(np.diag(M))
        if off.min(initial=0.0) < -ZERO_TOL:
            raise NegativeOffDiagonal(f"t[{key!r}] has a negative off-diagonal entry")
        if np.diag(M).max(initial=-np.inf) > ZERO_TOL:
            raise NegativeOffDiagonal(f"t[{key!r}] has a positive diagonal entry")
    for key in ("1*0", "2*0", "01*", "02*", "1*+", "2*+", "+1*", "+2*"):
        if spec.t[key].min(initial=0.0) < -ZERO_TOL:
            raise NegativeOffDiagonal(f"completion matrix t[{key!r}] has a negative entry")
    for key in U_KEYS:
        M = spec.u[key]
        if M.min(initial=0.0) < -ZERO_TOL:
            raise NonStochasticU(f"u[{key!r}] has a negative entry")
        rs = M.sum(axis=1)
        if np.max(np.abs(rs - 1.0)) > ZERO_TOL:
            raise NonStochasticU(
                f"u[{key!r}] rows must sum to 1, worst residual {np.max(np.abs(rs - 1.0)):.3e}"
            )

    worst = np.max(np.abs(spec.t["00"].sum(axis=1)))
    if worst > ZERO_TOL:
        raise GeneratorRowSumNonzero(f"t['00'] row sums reach {worst:.3e}")
    for base, completions in COMPOSITES:
        G = spec.t[base].copy()
        for c in completions:
            G = G + spec.t[c]
        worst = np.max(np.abs(G.sum(axis=1)))
        if worst > ZERO_TOL:
            raise GeneratorRowSumNonzero(
                f"t[{base!r}] + {'+'.join(completions)} row sums reach {worst:.3e}"
            )
    return spec


class NetworkModel:
    """Two-station re-entrant network.

    Class 1 arrives by `map1`, is served at station 1, feeds class 2 at
    station 2; a class-2 completion re-enters as class 3 (station 2)
    with probability `p` and leaves otherwise; class 3 feeds class 4 at
    station 1, which then leaves.  Class 3 also has its own arrival
    stream `map3`.
    """

    __slots__ = ("map1", "map3", "ph", "p", "discipline", "K", "msp1", "msp2",
                 "arrival_rates", "service_rates")

    def __init__(self, map1, map3, ph, p, discipline, K, msp1, msp2):
        self.map1 = map1
        self.map3 = map3
        self.ph = ph
        self.p = p
        self.discipline = discipline
        self.K = K
        self.msp1 = msp1
        self.msp2 = msp2
        # read on every drift and report: computed once
        self.arrival_rates = map_arrival_rate(map1), map_arrival_rate(map3)
        self.service_rates = tuple(1.0 / ph_mean(x) for x in ph)

    def __repr__(self):  # pragma: no cover
        return f"NetworkModel(discipline={self.discipline!r}, p={self.p})"


def build_network(
    map1: MAPSpec,
    map3: MAPSpec,
    ph1: PHSpec,
    ph2: PHSpec,
    ph3: PHSpec,
    ph4: PHSpec,
    p: float,
    discipline: str = "non_preemptive",
    K: int | None = None,
    msp1: MSPSpec | None = None,
    msp2: MSPSpec | None = None,
) -> NetworkModel:
    """Assemble a network model, building station MSPs per discipline.

    Station 1 pairs (class 1, class 4); station 2 pairs (class 3,
    class 2).  Custom disciplines take pre-built MSPs for both stations.
    """
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise NegativeProbability(f"feedback probability must lie in [0, 1], got {p}")
    if discipline == "non_preemptive":
        m1 = build_nonpreemptive_msp(ph1, ph4)
        m2 = build_nonpreemptive_msp(ph3, ph2)
    elif discipline == "preemptive_resume":
        m1 = build_preemptive_resume_msp(ph1, ph4)
        m2 = build_preemptive_resume_msp(ph3, ph2)
    elif discipline == "limited":
        if K is None:
            raise InvalidK("limited discipline needs K")
        m1 = build_limited_msp(ph1, ph4, K)
        m2 = build_limited_msp(ph3, ph2, K)
    elif discipline == "custom":
        if msp1 is None or msp2 is None:
            raise DimensionMismatch("custom discipline needs msp1 and msp2")
        m1 = validate_msp(msp1)
        m2 = validate_msp(msp2)
    else:
        raise NetdriftError(f"unknown discipline {discipline!r}")
    return NetworkModel(map1, map3, (ph1, ph2, ph3, ph4), p, discipline, K, m1, m2)
