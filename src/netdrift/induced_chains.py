"""Induced chains on the boundary faces and their drift tables.

Saturating a subset A of queues pins those coordinates in the interior
occupancy regime; what remains is a Markov chain on the free
coordinates plus the background.  Its stationary distribution yields
the long-run output rate of every queue and hence the drift vector
Delta q^A: input rate minus output rate, per unit time.

Numeric tables solve the induced chains on a reflecting truncation of
the free lattice (out-of-box moves folded onto the boundary), one level
per free coordinate.  Each face grows each coordinate to the level its
own measured decay calls for, until the distribution has provably
negligible boundary mass.  Closed-form tables cover the priority
disciplines and the symmetric (1,K)-limited case.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    AssumptionViolated,
    ClosedFormUnavailable,
    NotConverged,
    UnsupportedSubset,
)
from .generator import (
    BlockKernel,
    SUBSET_ALL,
    assemble_lattice,
    kernel_of,
    saturated_subset,
    signature_ranges,
)
from .primitives import ph_mean
from .service_disciplines import NetworkModel

# the five saturated subsets whose induced chains are positive recurrent
# under the drift sign conditions, in canonical order
CANONICAL_SUBSETS = (
    SUBSET_ALL,
    frozenset((1, 2, 3)),
    frozenset((1, 3, 4)),
    frozenset((1, 4)),
    frozenset((2, 3)),
)

# (subset, queue, required sign) for the ratio criterion to apply
SIGN_CONDITIONS = (
    (SUBSET_ALL, 1, +1),
    (SUBSET_ALL, 2, -1),
    (SUBSET_ALL, 3, +1),
    (SUBSET_ALL, 4, -1),
    (frozenset((1, 2, 3)), 1, -1),
    (frozenset((1, 2, 3)), 2, +1),
    (frozenset((1, 2, 3)), 3, +1),
    (frozenset((1, 3, 4)), 1, +1),
    (frozenset((1, 3, 4)), 3, -1),
    (frozenset((1, 3, 4)), 4, +1),
    (frozenset((1, 4)), 1, +1),
    (frozenset((1, 4)), 4, -1),
    (frozenset((2, 3)), 2, -1),
    (frozenset((2, 3)), 3, +1),
)

TAIL_TOL = 1e-6
SIGN_MARGIN = 1e-9
CROSS_CHECK_TOL = 1e-4


def subset_name(A):
    return "N" if A == SUBSET_ALL else "".join(str(i) for i in sorted(A))


class InducedChain:
    """Reduced kernel over the free coordinates of a saturated subset."""

    def __init__(self, kernel: BlockKernel, A):
        self.kernel = kernel
        self.A = A = saturated_subset(A)
        self.free = tuple(sorted(SUBSET_ALL - A))

    def full_signature(self, sig_free):
        sig = [2, 2, 2, 2]
        for pos, coord in enumerate(self.free):
            sig[coord - 1] = sig_free[pos]
        return tuple(sig)

    def q_blocks(self, sig_free):
        """Rate blocks over the free coordinates: the kernel's blocks at
        the full signature, summed over saturated moves."""
        out = {}
        for z, B in self.kernel.q_blocks(self.full_signature(sig_free)).items():
            zf = tuple(z[c - 1] for c in self.free)
            out[zf] = out[zf] + B if zf in out else B
        return out


def build_induced_chain(kernel: BlockKernel, A) -> InducedChain:
    return InducedChain(kernel, A)


class InducedChainSolution:
    """Stationary distribution of a truncated induced chain; `levels` and
    each `history` entry hold one truncation level per free coordinate."""

    __slots__ = (
        "A", "free", "levels", "dist", "residual", "tail_mass",
        "converged", "history", "note",
    )

    def __init__(self, A, free, levels, dist, residual, tail_mass, converged,
                 history, note):
        self.A = A
        self.free = free
        self.levels = levels
        self.dist = dist
        self.residual = residual
        self.tail_mass = tail_mass
        self.converged = converged
        self.history = history
        self.note = note

    def group_masses(self):
        """Probability mass per free-coordinate signature, as a vector
        over background states; signatures with no level are left out."""
        S0 = self.dist.shape[-1]
        out = {}
        for sig in np.ndindex(*(3,) * len(self.free)):
            axes = [signature_ranges(c, L) for c, L in zip(sig, self.levels)]
            if all(a.size for a in axes):
                out[sig] = self.dist[np.ix_(*axes)].reshape(-1, S0).sum(axis=0)
        return out


# a failed linear solve raises one of these; warnings count because the
# solve runs with warnings raised as errors
_SOLVE_ERRORS = (RuntimeError, np.linalg.LinAlgError, Warning)


def _stationary_of(Q):
    """Stationary row vector of a finite generator Q in CSR form, its
    stationarity residual max |pi Q| / r, with r = -min diag(Q), and a
    note, or None, None and the reason the solve failed.

    The balance equations have a unique solution on each closed
    communicating class of Q's stored nonzeros.  This solves them, over
    r, on the class holding the lowest-indexed recurrent state, one
    equation replaced by normalization, by ILU-preconditioned GMRES,
    and puts zero mass everywhere else.  The note names the class
    solved when Q has several.  A solver error, a GMRES stop short of
    its tolerance, or a result that fails the 1e-9 stationarity check
    on the whole of Q is a failure, so a returned residual is at most
    1e-9.
    """
    # imported per call, like the lattice assembly that builds Q, so
    # that importing this module loads no scipy
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from scipy.sparse.csgraph import connected_components

    n = Q.shape[0]
    count, labels = connected_components(Q, directed=True, connection="strong")
    # a class is closed when none of its states has an edge out of it
    source = labels[np.repeat(np.arange(n), np.diff(Q.indptr))]
    exits = np.zeros(count, dtype=bool)
    exits[source[source != labels[Q.indices]]] = True
    first = int(np.argmax(~exits[labels]))
    keep = np.flatnonzero(labels == labels[first])
    closed = count - int(exits.sum())
    note = (f"{closed} closed classes; solved the one holding state {first} "
            f"({keep.size} states)" if closed > 1 else "")

    m = keep.size
    # r spans the whole chain, as the kept class's rates may all be
    # round-off (one absorbing state); dividing by it saves GMRES steps
    r = -Q.diagonal().min()
    A = (Q[keep][:, keep].T / r).tocsr()
    A = sp.vstack([sp.csr_matrix(np.ones((1, m))), A[1:, :]], format="csc")
    b = np.zeros(m)
    b[0] = 1.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # incomplete LU settings measured on the 2-D faces at n =
            # 9k-26k: the coarse factor is the cheapest, and GMRES still
            # reaches ~1e-15
            ilu = spla.spilu(A, drop_tol=1e-2, fill_factor=5)
            M = spla.LinearOperator(A.shape, ilu.solve)
            x, info = spla.gmres(A, b, M=M, rtol=1e-13, atol=0.0, maxiter=300,
                                 restart=80)
    except _SOLVE_ERRORS as exc:
        return None, None, f"ilu-gmres failed: {type(exc).__name__}: {exc}"
    pi = np.zeros(n)
    pi[keep] = np.clip(x, 0.0, None)
    if pi.sum() > 0:
        pi /= pi.sum()
    resid = float(np.abs(pi @ Q).max()) / r
    if info != 0 or not (x.min() >= -1e-8 and resid <= 1e-9):
        return None, None, (f"ilu-gmres failed: GMRES info {info}, least entry "
                            f"{x.min():.3g}, stationarity residual {resid:.3g}")
    return pi, resid, note


# per-level decay of the boundary mass at or above which a face is taken
# to be transient: a tail falling by less than 10% over 32 levels
NON_DECAY_RATE = 0.9 ** (1 / 32)

# bound on the product of a face's levels times its background states
MAX_STATES = 3_000_000


def _marginal_decay(dist):
    """Per-level decay of the stationary mass on each free axis, read off
    one solve: the geometric ratio of the axis's level marginal between
    levels 1 and L-2.  None for an axis with no mass at level 1 or too
    short to tell."""
    d = dist.ndim - 1
    rates = []
    for axis, L in enumerate(dist.shape[:d]):
        marginal = dist.sum(axis=tuple(a for a in range(d + 1) if a != axis))
        if L < 4 or marginal[1] <= 0.0:
            rates.append(None)
        else:
            rates.append((marginal[L - 2] / marginal[1]) ** (1.0 / (L - 3)))
    return rates


def _next_level(L, tail, rate, cap):
    """The level at which `tail` decaying by `rate` per level reaches a
    quarter of TAIL_TOL, kept within [L+1, min(2L, cap)].  `tail` must
    be above that target.  Doubles when the rate is unknown or not
    below 1."""
    top = min(2 * L, cap)
    if rate is None or rate >= 1.0:
        return top
    if rate <= 0.0:
        return L + 1
    steps = math.ceil(math.log(TAIL_TOL / 4 / tail) / math.log(rate))
    return min(L + steps, top)


def _fit_budget(shape, floor, S0):
    """`shape` with its axes above `floor` cut back, the largest first,
    until the box holds at most MAX_STATES states; None when `floor`
    itself does not fit."""
    shape = list(shape)
    while math.prod(shape) * S0 > MAX_STATES:
        over = [a for a in range(len(shape)) if shape[a] > floor[a]]
        if not over:
            return None
        shape[max(over, key=lambda a: shape[a])] -= 1
    return tuple(shape)


def solve_stationary(chain: InducedChain, levels=8, cap=512) -> InducedChainSolution:
    """Stationary distribution with reflecting truncation, one level per
    free coordinate.

    Solves at `levels` on every axis first, then grows the box until the
    boundary mass (the cells where any axis sits at its top level) is at
    most TAIL_TOL; nothing else decides when a face is done.  The
    boundary is the union of the axes' top levels, so a boundary mass
    over TAIL_TOL puts more than TAIL_TOL / d on some axis's top level.
    Each step grows only the axes whose own top level holds more than
    TAIL_TOL / d, each to the level where that mass, decaying at the
    axis's measured per-level rate, reaches TAIL_TOL/4, but by at least
    one level and at most to double the current one or `cap`.  An axis
    that grew in the last step takes its rate from its top-level masses
    at its last two levels; at or above NON_DECAY_RATE on a growing axis,
    that rate means the mass is not decaying (the signature of a
    transient chain) and stops the growth, as does a growing axis at the
    cap.  Any other axis takes the decay of its level marginal in the
    current solution.  MAX_STATES bounds the product of the levels
    times the background states: a box over it has its growing axes cut
    back, the largest first, and the growth stops when none of them can
    grow.  A failed solve (see `_stationary_of`) stops the growth too,
    with the failure in the note and no residual or tail mass.
    `residual` and each `history` entry report the level's
    stationarity residual max |pi Q| / r, which `_stationary_of` has
    checked to be at most 1e-9.  A `levels` above `cap` starts at `cap`.
    """
    d = len(chain.free)
    S0 = chain.kernel.S0

    def failed(shape, history, note):
        return InducedChainSolution(chain.A, chain.free, shape, None, None,
                                    None, False, history, note)

    start = (min(int(levels), int(cap)),) * d
    shape = _fit_budget(start, (1,) * d, S0)
    if shape is None:
        return failed((), [], f"state budget {MAX_STATES} is below {S0} background states")
    budget_note = (f"levels {start} exceed the state budget; started at "
                   f"{shape}" if shape != start else "")
    history = []
    while True:
        Q = assemble_lattice(chain.q_blocks, shape, S0)
        pi, residual, note = _stationary_of(Q)
        if pi is None:
            return failed(shape, history, f"levels {shape}: {note}")
        dist = pi.reshape(shape + (S0,))
        on_boundary = np.ones(shape, dtype=bool)
        on_boundary[tuple(slice(0, L - 1) for L in shape)] = False
        tail = float(dist[on_boundary].sum())
        tails = [float(dist.take(L - 1, axis=a).sum()) for a, L in enumerate(shape)]
        history.append((shape, residual, tail))
        if tail <= TAIL_TOL:
            return InducedChainSolution(
                chain.A, chain.free, shape, dist, residual, tail, True, history,
                "; ".join(filter(None, (budget_note, note))),
            )
        grow = [a for a in range(d) if tails[a] > TAIL_TOL / d]
        rates = _marginal_decay(dist)
        if len(history) > 1:
            measured = [a for a in range(d)
                        if shape[a] > prev_shape[a] and prev_tails[a] > 0.0]
            for a in measured:
                rates[a] = (tails[a] / prev_tails[a]) ** (1.0 / (shape[a] - prev_shape[a]))
            if any(rates[a] >= NON_DECAY_RATE for a in measured if a in grow):
                note = "boundary mass is not decaying; chain is likely transient"
                break
        if any(shape[a] >= cap for a in grow):
            note = f"truncation cap {cap} reached"
            break
        target = list(shape)
        for a in grow:
            target[a] = _next_level(shape[a], tails[a], rates[a], cap)
        nxt = _fit_budget(target, shape, S0)
        if nxt == shape:
            note = f"state budget exceeded beyond levels {shape}"
            break
        prev_shape, prev_tails, shape = shape, tails, nxt
    return InducedChainSolution(chain.A, chain.free, shape, dist, residual, tail,
                                False, history, note)


def _flows(chain: InducedChain, sol: InducedChainSolution):
    """(z, rate of the moves z) for each of the kernel's blocks in each
    regime of the face, weighed by the stationary mass there."""
    for sig_free, pi in sol.group_masses().items():
        for z, B in chain.kernel.q_blocks(chain.full_signature(sig_free)).items():
            yield z, pi @ B.sum(axis=1)


def output_rates(chain: InducedChain, sol: InducedChainSolution) -> np.ndarray:
    """Long-run completion rate of each queue (events per unit time).

    Weighs the row sums of the kernel's completion blocks (z[i] < 0) in
    the regime each face point sits in by the stationary mass there.
    The saturated coordinates count as interior (>= 2).
    """
    if not sol.converged:
        raise NotConverged(
            f"induced chain {subset_name(chain.A)} did not converge: {sol.note or sol.history}"
        )
    mu = np.zeros(4)
    for z, flow in _flows(chain, sol):
        for i in range(4):
            if z[i] < 0:
                mu[i] += flow
    return mu


def input_rates(model: NetworkModel, mu_bar) -> np.ndarray:
    """Effective input rates given the output rates: exogenous streams
    plus internal transfers (Q1 -> Q2, feedback into Q3, Q3 -> Q4)."""
    lam1, lam3 = model.arrival_rates
    return np.array([lam1, mu_bar[0], lam3 + model.p * mu_bar[1], mu_bar[2]])


def mean_displacement(chain: InducedChain, sol: InducedChainSolution) -> np.ndarray:
    """Mean displacement per unit time, all four coordinates (saturated
    ones use the full, unreduced moves)."""
    a = np.zeros(4)
    for z, flow in _flows(chain, sol):
        for i in range(4):
            a[i] += z[i] * flow
    return a


# --- drift tables -----------------------------------------------------------

class DriftEntry:
    __slots__ = ("subset", "input_rates", "output_rates", "drifts",
                 "provenance", "diagnostics")

    def __init__(self, subset, input_rates, output_rates, drifts, provenance,
                 diagnostics=None):
        self.subset = subset
        self.input_rates = None if input_rates is None else np.asarray(input_rates, float)
        self.output_rates = None if output_rates is None else np.asarray(output_rates, float)
        self.drifts = None if drifts is None else np.asarray(drifts, float)
        self.provenance = provenance
        self.diagnostics = diagnostics or {}

    def to_json_dict(self):
        return {
            "subset": sorted(self.subset),
            "inputRates": None if self.input_rates is None else list(self.input_rates),
            "outputRates": None if self.output_rates is None else list(self.output_rates),
            "drifts": None if self.drifts is None else list(self.drifts),
            "provenance": self.provenance,
            "diagnostics": _json_safe(self.diagnostics),
        }


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


class DriftTable:
    """Drift vectors for the canonical saturated subsets.

    Holds a closed-form table, a numeric table, or both; `primary`
    names the one downstream classification reads (closed form when
    available)."""

    def __init__(self, mode, lam1, lam3, p, service_rates, closed, numeric,
                 cross_check, notes):
        self.mode = mode
        self.lam1 = lam1
        self.lam3 = lam3
        self.p = p
        self.service_rates = service_rates
        self.closed = closed
        self.numeric = numeric
        self.cross_check = cross_check
        self.notes = notes

    @property
    def primary(self):
        return self.closed if self.closed is not None else self.numeric

    def entry(self, A) -> DriftEntry:
        A = frozenset(A)
        table = self.primary
        if table is None or A not in table:
            raise UnsupportedSubset(f"no drift entry for subset {subset_name(A)}")
        return table[A]

    def drifts(self, A) -> np.ndarray:
        e = self.entry(A)
        if e.drifts is None:
            raise NotConverged(
                f"drift for subset {subset_name(A)} is unavailable: "
                f"{e.diagnostics.get('note', 'no converged solution')}"
            )
        return e.drifts

    def direction(self, A) -> np.ndarray:
        """Drift vector with the stable (off-subset) coordinates zeroed,
        suitable for exact geometric constructions."""
        A = frozenset(A)
        d = self.drifts(A).copy()
        for i in range(4):
            if (i + 1) not in A:
                d[i] = 0.0
        return d

    def to_json_dict(self):
        def table_json(table):
            if table is None:
                return None
            return [table[A].to_json_dict() for A in CANONICAL_SUBSETS if A in table]

        return {
            "mode": self.mode,
            "lambda1": self.lam1,
            "lambda3": self.lam3,
            "p": self.p,
            "serviceRates": list(self.service_rates),
            "closed": table_json(self.closed),
            "numeric": table_json(self.numeric),
            "crossCheck": _json_safe(self.cross_check),
            "notes": list(self.notes),
        }


def _priority_closed(lam1, lam3, mu):
    mu1, mu2, mu3, mu4 = mu
    return {
        SUBSET_ALL: (0.0, mu2, 0.0, mu4),
        frozenset((1, 2, 3)): (mu1, mu2, 0.0, 0.0),
        frozenset((1, 3, 4)): (0.0, 0.0, mu3, mu4),
        frozenset((1, 4)): (0.0, 0.0, lam3, mu4),
        frozenset((2, 3)): (lam1, mu2, 0.0, 0.0),
    }


def _limited_closed(lam1, lam3, mu, K):
    mu1, mu2 = mu[0], mu[1]
    D = 1.0 / mu1 + K / mu2
    g = 1.0 / D
    gK = K / D
    m_active = (1.0 + (K - 1) * mu1 / mu2) / D
    return {
        SUBSET_ALL: (g, gK, g, gK),
        frozenset((1, 2, 3)): (m_active, gK, g, g),
        frozenset((1, 3, 4)): (g, g, m_active, gK),
        frozenset((1, 4)): (g, g, lam3, gK),
        frozenset((2, 3)): (lam1, gK, g, g),
    }


def nominal_condition(model: NetworkModel):
    """Utilization vector and the load-per-station feasibility flag."""
    lam1, lam3 = model.arrival_rates
    h = [ph_mean(ph) for ph in model.ph]
    rho = np.array([
        lam1 * h[0],
        lam1 * h[1],
        (model.p * lam1 + lam3) * h[2],
        (model.p * lam1 + lam3) * h[3],
    ])
    holds = bool(rho[0] + rho[3] < 1.0 and rho[1] + rho[2] < 1.0)
    return rho, holds


def closed_form_table(model: NetworkModel):
    """Closed-form drift entries, or raise when outside their scope."""
    lam1, lam3 = model.arrival_rates
    mu = model.service_rates
    rho, holds = nominal_condition(model)
    if not holds:
        raise AssumptionViolated(
            f"nominal condition fails: station loads are {rho[0] + rho[3]:.6g} "
            f"and {rho[1] + rho[2]:.6g}"
        )
    if model.discipline in ("non_preemptive", "preemptive_resume"):
        if not (mu[0] > mu[1] and mu[2] > mu[3]):
            raise AssumptionViolated(
                "closed form needs mu1 > mu2 and mu3 > mu4 "
                f"(got mu={tuple(round(v, 6) for v in mu)})"
            )
        out = _priority_closed(lam1, lam3, mu)
    elif model.discipline == "limited":
        scale = max(abs(lam1), abs(lam3), *mu)
        symmetric = (
            abs(lam1 - lam3) <= 1e-9 * scale
            and abs(mu[0] - mu[2]) <= 1e-9 * scale
            and abs(mu[1] - mu[3]) <= 1e-9 * scale
            and model.p == 0.0
        )
        if not symmetric:
            raise AssumptionViolated(
                "limited closed form needs the symmetric case: "
                "lambda1 = lambda3, mu1 = mu3, mu2 = mu4, p = 0"
            )
        if not mu[0] > mu[1]:
            raise AssumptionViolated("limited closed form needs mu1 > mu2")
        kstar = max(1.0, (1.0 - rho[0]) / rho[1], rho[0] / (1.0 - rho[1]))
        if not model.K > kstar:
            raise AssumptionViolated(
                f"visit budget K={model.K} must exceed K*={kstar:.6g}"
            )
        out = _limited_closed(lam1, lam3, mu, model.K)
    else:
        raise ClosedFormUnavailable(
            f"no closed-form drift table for discipline {model.discipline!r}"
        )
    entries = {}
    for A, rates in out.items():
        rates = np.array(rates)
        inp = input_rates(model, rates)
        entries[A] = DriftEntry(A, inp, rates, inp - rates, "ClosedForm")
    return entries


def numeric_table(model: NetworkModel, levels=8, cap=512):
    """Numeric drift entries for the canonical subsets."""
    kernel = kernel_of(model)
    entries = {}
    for A in CANONICAL_SUBSETS:
        chain = build_induced_chain(kernel, A)
        sol = solve_stationary(chain, levels=levels, cap=cap)
        diag = {
            "levels": sol.levels,
            "residual": sol.residual,
            "tailMass": sol.tail_mass,
            "converged": sol.converged,
            "history": sol.history,
        }
        if sol.note:
            diag["note"] = sol.note
        if not sol.converged:
            entries[A] = DriftEntry(A, None, None, None, "Numeric", diag)
            continue
        mu_bar = output_rates(chain, sol)
        inp = input_rates(model, mu_bar)
        drifts = inp - mu_bar
        off = [abs(drifts[i - 1]) for i in range(1, 5) if i not in A]
        diag["offSubsetDriftMax"] = max(off) if off else 0.0
        entries[A] = DriftEntry(A, inp, mu_bar, drifts, "Numeric", diag)
    return entries


def drift_table(model: NetworkModel, mode="both", levels=8,
                cap=512) -> DriftTable:
    """Assemble the drift table in the requested mode.

    "both" computes closed and numeric tables and cross-checks them at
    1e-4 relative per entry, with notes naming the faces that have no
    numeric drift and those beyond the tolerance; its `worst` is the
    largest relative difference, or None when some face has no numeric
    drift to compare.  Classification downstream reads the closed table
    when present.  A closed form that is out of scope degrades "both" to
    numeric-only with a note instead of failing.
    """
    if mode not in ("closed", "numeric", "both"):
        raise ValueError(f"unknown drift table mode {mode!r}")
    lam1, lam3 = model.arrival_rates
    notes = []
    closed = None
    if mode in ("closed", "both"):
        try:
            closed = closed_form_table(model)
        except (ClosedFormUnavailable, AssumptionViolated) as exc:
            if mode == "closed":
                raise
            notes.append(f"closed form unavailable: {exc}")
    numeric = None
    if mode in ("numeric", "both"):
        numeric = numeric_table(model, levels=levels, cap=cap)
    cross = None
    if closed is not None and numeric is not None:
        rels = {}
        for A in CANONICAL_SUBSETS:
            num, clo = numeric[A].drifts, closed[A].drifts
            rels[subset_name(A)] = None if num is None else max(
                abs(num[i - 1] - clo[i - 1]) / max(abs(clo[i - 1]), 1e-8)
                for i in sorted(A))
        missing = [name for name, rel in rels.items() if rel is None]
        over = [name for name, rel in rels.items()
                if rel is not None and rel > CROSS_CHECK_TOL]
        if missing:
            notes.append("no numeric drift to cross-check on faces " + ", ".join(missing))
        if over:
            notes.append("numeric drift table disagrees with the closed form beyond "
                         f"{CROSS_CHECK_TOL:g} relative on faces " + ", ".join(over))
        cross = {"tolerance": CROSS_CHECK_TOL, "subsets": rels,
                 "ok": not (missing or over),
                 "worst": None if missing else max(rels.values())}
    return DriftTable(mode, lam1, lam3, model.p, model.service_rates,
                      closed, numeric, cross, notes)


def check_sign_conditions(table: DriftTable):
    """Evaluate the fourteen drift sign conditions on the primary table.

    A condition within 1e-9 of zero is reported as marginal and counts
    as failed; the ratio criterion is not trusted that close to a
    degenerate configuration."""
    results = []
    all_hold = True
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
            all_hold = False
            results.append(item)
            continue
        marginal = abs(value) <= SIGN_MARGIN
        ok = (not marginal) and (value > 0) == (sign > 0)
        item.update(value=value, ok=bool(ok), marginal=bool(marginal))
        if not ok:
            all_hold = False
        results.append(item)
    return {"allHold": all_hold, "conditions": results}
