"""Induced chains on the boundary faces and their drift tables.

Saturating a subset A of queues pins those coordinates in the interior
occupancy regime; what remains is a Markov chain on the free
coordinates plus the background.  Its stationary distribution yields
the long-run output rate of every queue and hence the drift vector
Delta q^A: input rate minus output rate, per unit time.

Numeric tables solve small faces as level-independent QBDs (quasi-
birth-death chains) along one free queue, which is not truncated, and
larger ones on a reflecting truncation of the free lattice (out-of-box
moves folded onto the boundary).  Every path solves on the kept closed
class, under one guard and one acceptance rule (`_stationary_of`).  Each
truncated coordinate grows to the level its own measured decay calls
for, until the distribution has provably negligible boundary mass.
Closed-form tables cover every built-in discipline (`closed_form_table`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

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
    canonical_triplets,
    kernel_of,
    lattice_triplets,
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

TAIL_TOL = 1e-6
CROSS_CHECK_TOL = 1e-4


def subset_name(A):
    return "N" if A == SUBSET_ALL else "".join(str(i) for i in sorted(A))


class InducedChain:
    """Reduced kernel over the free coordinates of a saturated subset."""

    def __init__(self, kernel: BlockKernel, A):
        self.kernel = kernel
        self.A = A = saturated_subset(A)
        self.free = tuple(sorted(SUBSET_ALL - A))
        self._q_cache = {}

    def full_signature(self, sig_free):
        sig = [2, 2, 2, 2]
        for pos, coord in enumerate(self.free):
            sig[coord - 1] = sig_free[pos]
        return tuple(sig)

    def q_blocks(self, sig_free):
        """Rate blocks over the free coordinates, as canonical triplets: the
        kernel's blocks at the full signature, summed over saturated moves
        in block order (`generator.canonical_triplets`), once per signature."""
        if sig_free in self._q_cache:
            return self._q_cache[sig_free]
        groups = {}
        for z, B in self.kernel.q_blocks(self.full_signature(sig_free)).items():
            groups.setdefault(tuple(z[c - 1] for c in self.free), []).append(B)
        S0 = self.kernel.S0
        hit = self._q_cache[sig_free] = {zf: Bs[0] if len(Bs) == 1 else canonical_triplets(
            np.concatenate([r * S0 + c for r, c, _ in Bs]),
            np.concatenate([v for _, _, v in Bs]), S0) for zf, Bs in groups.items()}
        return hit


def build_induced_chain(kernel: BlockKernel, A) -> InducedChain:
    return InducedChain(kernel, A)


@dataclass(slots=True, eq=False)
class InducedChainSolution:
    """Stationary distribution of an induced chain at the last level
    `solve_stationary` tried; `levels` and each `history` entry hold one
    truncation level per free coordinate, None for a QBD's level axis,
    whose `dist` axis has the cells 0, 1 and >= 2.  On a QBD, `qbd` holds
    that level's logarithmic-reduction steps, max |1 - G 1| and its kept
    phases at levels >= 2 and how many of them a down move enters; on a
    box it is None."""

    A: frozenset
    free: tuple
    levels: tuple
    dist: np.ndarray | None
    residual: float | None
    tail_mass: float | None
    converged: bool
    history: list
    note: str
    qbd: dict | None = None

    def group_masses(self):
        """Probability mass per free-coordinate signature, as a vector
        over background states; signatures with no level are left out."""
        S0 = self.dist.shape[-1]
        out = {}
        for sig in np.ndindex(*(3,) * len(self.free)):
            axes = [signature_ranges(c, L) for c, L in zip(sig, self.dist.shape)]
            if all(a.size for a in axes):
                out[sig] = self.dist[np.ix_(*axes)].reshape(-1, S0).sum(axis=0)
        return out


# a failed linear solve raises one of these; warnings count because the
# solve runs with warnings raised as errors
_SOLVE_ERRORS = (RuntimeError, np.linalg.LinAlgError, Warning)

# a kept class of at most this many states is solved by dense LU: face N of the
# bench models keeps at most 64; a box (past the QBD cap) holds over 1,000 at START_LEVEL
DENSE_STATES = 400


def _closed_classes(rows, cols, n):
    """The number of closed classes of the digraph rows -> cols on n
    states (rows sorted) and the states of the one holding the least
    recurrent state: what the least a with low[a] == a == hi[a] reaches,
    where low[v] is the least state v reaches and hi[v] the largest low
    over those.  Both are min/max fixpoints over the edges; a label is a
    state its holder reaches, so each sweep also jumps to its label."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    has = rows[starts]

    def fixpoint(label, op):
        while True:
            new = label.copy()
            new[has] = op(new[has], op.reduceat(label[cols], starts))
            new = op(new, new[new])
            if np.array_equal(new, label):
                return label
            label = new

    low = fixpoint(np.arange(n), np.minimum)
    heads = np.flatnonzero((low == np.arange(n)) & (fixpoint(low, np.maximum) == low))
    indptr = np.searchsorted(rows, np.arange(n + 1))
    seen = np.arange(n) == heads[0]
    front = heads[:1]
    while front.size:
        start, deg = indptr[front], indptr[front + 1] - indptr[front]
        reached = cols[np.repeat(start - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())]
        # sorted and deduplicated without np.unique, which loads numpy.ma
        front = np.sort(reached[~seen[reached]])
        front = front[np.diff(front, prepend=-1) != 0]
        seen[front] = True
    return heads.size, np.flatnonzero(seen)


class _SolveFailed(Exception):
    """A face solve that failed; the message says how."""


def _block(rows, cols, data, n, rsel, csel):
    """The dense block at rows `rsel` and columns `csel` of the triplets' matrix."""
    at = np.full((2, n), -1)
    at[0, rsel], at[1, csel] = np.arange(rsel.size), np.arange(csel.size)
    i, j = at[0, rows], at[1, cols]
    B, hit = np.zeros((rsel.size, csel.size)), (i >= 0) & (j >= 0)
    B[i[hit], j[hit]] = data[hit]
    return B


def _stationary_of(rows, cols, data, n, qbd=False):
    """The stationary law of the finite generator Q that canonical
    triplets give, on the closed class holding its lowest-indexed
    recurrent state (zero mass elsewhere): (law, residual, path, QBD
    diagnostics or None, note); the note names the class when Q has
    several.  The path, "qbd" when `qbd`, else "dense-lu" up to
    DENSE_STATES kept states and "ilu-gmres" above, runs over r = -min
    diag(Q) with warnings raised as errors; a solver error, a refused QBD
    or a failed `_accept` raises _SolveFailed, whose message is the reason."""
    closed, keep = _closed_classes(rows, cols, n)
    note = (f"{closed} closed classes; solved the one holding state {keep[0]} "
            f"({keep.size} states)" if closed > 1 else "")
    # r spans the whole chain, as the kept class's rates may all be
    # round-off (one absorbing state); dividing by it saves GMRES steps
    r = -data[rows == cols].min(initial=0.0)
    path = "qbd" if qbd else "dense-lu" if keep.size <= DENSE_STATES else "ilu-gmres"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist, resid, stats = (_qbd_solve if qbd else _box_solve)(
                rows, cols, data, n, keep, r, path)
    except _SOLVE_ERRORS as exc:
        raise _SolveFailed(f"{path} failed: {type(exc).__name__}: {exc}") from None
    return dist, resid, path, stats, note


def _accept(path, least, resid, info=0):
    """The acceptance rule of every face solve: raises _SolveFailed unless
    GMRES, if it ran, stopped cleanly (`info` 0) and both bounds hold."""
    if info != 0 or not (least >= -1e-8 and resid <= 1e-9):
        stop = f"GMRES info {info}, " if path == "ilu-gmres" else ""
        raise _SolveFailed(f"{path} failed: {stop}least entry {least:.3g}, "
                           f"stationarity residual {resid:.3g}")


def _box_solve(rows, cols, data, n, keep, r, path):
    """The balance equations over r on the kept class, one replaced by
    normalization, by dense LU or ILU-preconditioned GMRES: the law on
    all n states and its residual max |pi Q| / r on the whole of Q."""
    m = keep.size
    b = np.zeros(m)
    b[0] = 1.0
    if path == "dense-lu":
        # a closed class's rows have all their entries inside it
        A = _block(rows, cols, data, n, keep, keep).T / r
        A[0] = 1.0
        x, info = np.linalg.solve(A, b), 0
    else:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        Q = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        A = (Q[keep][:, keep].T / r).tocsr()
        A = sp.vstack([sp.csr_matrix(np.ones((1, m))), A[1:, :]], format="csc")
        # incomplete LU settings measured on the 2-D faces at n = 9k-26k: the
        # coarse factor is the cheapest, and GMRES still reaches ~1e-15
        ilu = spla.spilu(A, drop_tol=1e-2, fill_factor=5)
        M = spla.LinearOperator(A.shape, ilu.solve)
        x, info = spla.gmres(A, b, M=M, rtol=1e-13, atol=0.0, maxiter=300, restart=80)
    pi = np.zeros(n)
    pi[keep] = np.clip(x, 0.0, None)
    if pi.sum() > 0:
        pi /= pi.sum()
    resid = float(np.abs(np.bincount(cols, pi[rows] * data, minlength=n)).max()) / r
    _accept(path, x.min(), resid, info)
    return pi, resid, None


def _qbd_solve(rows, cols, data, n, keep, r, path):
    """The stationary law of the level-independent QBD whose levels 0..3
    (m = n/4 phases each, level 3 reflecting) canonical triplets give:
    its mass at levels 0, 1 and >= 2 as a (3, m) array, the residual and
    the diagnostics.

    Levels >= 2 repeat level 2's up, local and down blocks U, L, D.  The
    box's kept class holds the phases kept at levels 0 and 1, and at 2 and 3
    the q phases P kept at every level >= 2, on which Neuts' mean drift
    condition alpha U 1 < alpha D 1, alpha (U + L + D) = 0, must hold.  The
    solve holds a few q x q blocks at a time, scattered from the triplets
    when read: Up, Lp, Dp are U, L, D on the columns P, and U 1, D 1 and
    level 3's balance sum the moves out of level 2.  A down move enters only
    the c phases C of Dp's nonzero columns, so logarithmic reduction keeps G
    and its down iterates Lo as q x c blocks and solves each step through a
    2c x 2c capacitance matrix (Woodbury), with a running product T = H_0 ..
    H_k.  K = -Lp - Up G is -Lp but on the columns C, so K^-1 is Li =
    (-Lp)^-1 plus a rank-c update.  Levels 0..2 are solved level by level:
    pi_2 = pi_1 B12 K^-1, R = Up K^-1, then pi_1, then pi_0, normalised with
    levels >= 2 holding pi_2 (I - R)^-1.  The residual is the largest
    balance residual at levels 0..3 and of Up + R Lp + R^2 Dp = 0, over r."""
    m = n // 4
    P = np.flatnonzero(np.bincount(keep[keep >= 2 * m] % m, minlength=m))
    # the kept states at levels 0 and 1, then the kept phases of level 2
    k0, k1, k2 = keep[keep < m], keep[(keep >= m) & (keep < 2 * m)], 2 * m + P
    kept = np.concatenate([k0, k1, k2])
    q, s = P.size, kept.size - P.size
    block = partial(_block, rows, cols, data, n)
    # the moves out of level 2 (rows are sorted): their phase, target level and phase, and rate
    two = slice(*np.searchsorted(rows, [2 * m, 3 * m]))
    i, (level, phase), v = rows[two] % m, np.divmod(cols[two], m), data[two]
    Up, Lp, Dp = (block(k2, k * m + P) for k in (3, 2, 1))
    C = np.flatnonzero(Dp.any(axis=0))
    if q:
        alpha = np.linalg.solve(np.vstack([np.ones(q), (Up + Lp + Dp)[:, 1:].T / r]),
                                np.eye(1, q)[0])
        up, down = (alpha @ np.bincount(i[level == k], v[level == k], minlength=m)[P]
                    for k in (3, 1))
        if not up < down:
            raise _SolveFailed(
                f"qbd refused: mean drift condition fails: up rate {up:.6g} >= "
                f"down rate {down:.6g} on the kept phases; not positive recurrent")
    if not k0.size:
        raise _SolveFailed("qbd failed: the kept class holds no level-0 state")
    Li, Dp = np.linalg.inv(-Lp), Dp[:, C]
    H, Lo = Li @ Up, Li @ Dp
    del Up, Lp  # the reduction runs without them; they are scattered again after it
    G, T, iterations = Lo, H, 0
    while T.sum(axis=1).max(initial=0.0) > 1e-15:
        if iterations == 64:
            raise _SolveFailed("qbd failed: logarithmic reduction did not converge")
        # I - H Lo - Lo H = I - V W, with V = [H Lo_C, Lo_C] and W = [E_C; H_C]
        HC, V = H[C], np.hstack([H @ Lo, Lo])
        H, Lo = H @ H, Lo @ Lo[C]
        S = np.linalg.solve(np.eye(2 * C.size) - np.vstack([V[C], HC @ V]), np.hstack(
            [np.vstack([H[C], HC @ H]), np.vstack([Lo[C], HC @ Lo])]))
        H += V @ S[:, :q]
        Lo += V @ S[:, q:]
        G, T, iterations = G + T @ Lo, T @ H, iterations + 1
    del H, T
    Up, Lp = (block(k2, k * m + P) for k in (3, 2))
    # K^-1 = Li + Z (I_c - Z_C)^-1 Li_C with Z = Li Up G, in place of Li
    Z = Li @ (Up @ G)
    Li += Z @ np.linalg.solve(np.eye(C.size) - Z[C], Li[C])
    R = Up @ Li
    Lp[:, C] += R @ Dp
    Up += R @ Lp  # Up + R Lp + R^2 Dp, whose largest entry is part of the residual
    del Lp
    quad, W2 = np.abs(Up).max(initial=0.0), block(k1, k2) @ Li
    del Up, Li
    W1 = np.linalg.solve((block(k1, k1) + W2 @ block(k2, k1)).T, -block(k0, k1).T).T
    A = (block(k0, k0) + W1 @ block(k1, k0)).T / r
    IR = np.eye(q) - R
    A[0] = 1.0 + W1 @ (1.0 + W2 @ np.linalg.solve(IR, np.ones(q)))
    x0 = np.linalg.solve(A, np.eye(1, k0.size)[0])
    x = np.concatenate([x0, x0 @ W1, x0 @ W1 @ W2])
    above = np.linalg.solve(IR.T, x[s:])
    # the balance at levels 0..3: the box's flows, and x_2 U + pi_3 L + pi_4 D
    pi, weight = np.zeros(n), np.zeros((3, m))
    pi[kept], pi[3 * m + P] = x, x[s:] @ R
    weight[:, P] = pi[3 * m + P] @ R, pi[3 * m + P], x[s:]
    flows = np.bincount(cols, pi[rows] * data, minlength=n)[:3 * m]
    top = np.bincount(phase, weight[level - 1, i] * v, minlength=m)
    resid = float(max(np.abs(flows).max(), np.abs(top).max(initial=0.0), quad) / r)
    _accept(path, min(x.min(), above.min(initial=0.0)), resid)
    pi[2 * m + P] = above
    dist = np.clip(pi[:3 * m], 0.0, None).reshape(3, m)
    gap = float(np.abs(1.0 - G.sum(axis=1)).max(initial=0.0))
    return dist / dist.sum(), resid, {"lrIterations": iterations, "gRowSumError": gap,
                                      "phases": q, "downPhases": C.size}


# per-level decay of the boundary mass at or above which a face is taken
# to be transient: a tail falling by less than 10% over 32 levels
NON_DECAY_RATE = 0.9 ** (1 / 32)

# bound on a face's truncated cells times its background states; on a QBD,
# on the square of that, the entries of a dense block its solve reads
MAX_STATES = 3_000_000

# the first level of each truncated axis, and the most it grows to
START_LEVEL, LEVEL_CAP = 4, 512


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


def _next_level(L, tail, rate, target):
    """The level at which `tail` decaying by `rate` per level reaches
    `target`, kept within [L+1, min(2L, LEVEL_CAP)].  `tail` must be
    above that target.  Doubles when the rate is unknown or not below 1."""
    top = min(2 * L, LEVEL_CAP)
    if rate is None or rate >= 1.0:
        return top
    if rate <= 0.0:
        return L + 1
    steps = math.ceil(math.log(target / tail) / math.log(rate))
    return min(L + steps, top)


# the most phases solved as a QBD, S0 * START_LEVEL (a 2-D face's phases at
# its start) on every face with a free coordinate, so that a model's such faces
# are all QBDs or all boxes: numeric mode on sym K=13 (900) peaks at 76 MB
# with QBDs, 92 with boxes, and takes 0.90 s, 0.72 with boxes (median of 6),
# r1*r2 off by 2e-15 and 8e-7.  Past it the 2-D faces load scipy for their
# boxes, and a 1-D face's box is then the faster: sym K=14 takes 0.65 s, 0.78
# with its 1-D faces as QBDs, for the same r1*r2 to 2e-15
QBD_PHASES = 1000


def _solve_at(chain: InducedChain, shape):
    """One solve of `chain` truncated to `shape` by `_stationary_of`:
    (dist, residual, path, QBD diagnostics, note).  A None level marks a
    QBD's level axis: the QBD is solved in lattice order (level, other
    axis) and its (3, ...) law moved back in place; any other shape is a
    box."""
    S0 = chain.kernel.S0
    if None not in shape:
        pi, *rest = _stationary_of(*lattice_triplets(chain.q_blocks, shape, S0))
        return pi.reshape(shape + (S0,)), *rest
    slow = shape.index(None)
    fast = shape[:slow] + shape[slow + 1:]
    block_fn = chain.q_blocks if slow == 0 else (
        lambda sig: {z[::-1]: B for z, B in chain.q_blocks(sig[::-1]).items()})
    dist, *rest = _stationary_of(*lattice_triplets(block_fn, (4,) + fast, S0), qbd=True)
    return np.moveaxis(dist.reshape((3,) + fast + (S0,)), 0, slow), *rest


def solve_stationary(chain: InducedChain) -> InducedChainSolution:
    """Stationary distribution of a face's induced chain, one truncation
    level per free coordinate, grown in one loop on either path.

    A face with a free coordinate is a QBD when S0 * START_LEVEL is at
    most QBD_PHASES.  Its level, the free queue with exogenous
    arrivals (1 or 3), is not truncated (None); its other axis, if any,
    is truncated.  Any other face is a box, every axis truncated.  So
    the path depends on the model alone.  Each truncated axis starts at
    START_LEVEL and the face grows until its boundary mass (the cells
    where any truncated axis sits at its top level) is at most TAIL_TOL;
    nothing else decides when a face is done.  A larger boundary mass
    puts more than TAIL_TOL / t on some of the t truncated axes' top
    levels, and each step grows only such axes, each to the level where
    that mass, decaying at the axis's measured per-level rate, reaches
    TAIL_TOL/4 on a box and TAIL_TOL/2 on a QBD (whose dense solve costs
    the cube of its phases), but by at least one level and at most to
    double the current one or LEVEL_CAP.  An axis that grew in the last
    step takes its rate from its top-level masses at its last two
    levels; at or above NON_DECAY_RATE on a growing axis, that rate
    means the mass is not decaying (the signature of a transient chain)
    and stops the growth, as does a growing axis at the cap.  Any other
    axis takes the decay of its level marginal in the current solution.
    MAX_STATES bounds the truncated cells times S0, the states of a box,
    or its square on a QBD, which bounds each dense block its solve
    reads: a shape over it has its axes cut back, the largest first, and
    the growth stops when none of them can grow.  A failed solve (see
    `_stationary_of`) stops the growth too, with no residual or tail
    mass.  The note keeps a cut-back start, the last level's closed
    classes and why the growth stopped.  A `history` entry is (levels,
    residual, boundary mass, solver path); `residual` is the level's
    stationarity residual, within the bound `_accept` sets.
    """
    d, S0 = len(chain.free), chain.kernel.S0
    qbd = d > 0 and S0 * START_LEVEL <= QBD_PHASES
    slow = next((a for a, q in enumerate(chain.free) if q in (1, 3)), 0) if qbd else None
    axes = [a for a in range(d) if a != slow]
    power, aim = (2, TAIL_TOL / 2) if qbd else (1, TAIL_TOL / 4)

    def fit(shape, floor):
        shape = list(shape)
        while (math.prod(shape[a] for a in axes) * S0) ** power > MAX_STATES:
            over = [a for a in axes if shape[a] > floor[a]]
            if not over:
                return None
            shape[max(over, key=lambda a: shape[a])] -= 1
        return tuple(shape)

    start = tuple(None if a == slow else START_LEVEL for a in range(d))
    shape = fit(start, (1,) * d)
    if shape is None:
        squared = " squared" if qbd else ""
        return InducedChainSolution(chain.A, chain.free, (), None, None, None, False, [],
                                    f"state budget {MAX_STATES} is below {S0} background "
                                    f"states{squared}")
    budget_note = (f"levels {start} exceed the state budget; started at "
                   f"{shape}" if shape != start else "")
    history = []
    while True:
        try:
            dist, residual, path, stats, note = _solve_at(chain, shape)
        except _SolveFailed as exc:
            return InducedChainSolution(chain.A, chain.free, shape, None, None, None, False,
                                        history, "; ".join(filter(None, (
                                            budget_note, f"levels {shape}: {exc}"))))
        on_boundary = np.ones(dist.shape[:d], dtype=bool)
        on_boundary[tuple(slice(None) if a == slow else slice(0, shape[a] - 1)
                          for a in range(d))] = False
        tail = float(dist[on_boundary].sum())
        tails = {a: float(dist.take(shape[a] - 1, axis=a).sum()) for a in axes}
        history.append((shape, residual, tail, path))
        if tail <= TAIL_TOL:
            return InducedChainSolution(chain.A, chain.free, shape, dist, residual, tail, True,
                                        history, "; ".join(filter(None, (budget_note, note))),
                                        stats)
        grow = [a for a in axes if tails[a] > TAIL_TOL / len(axes)]
        rates = _marginal_decay(dist)
        if len(history) > 1:
            measured = [a for a in axes if shape[a] > prev_shape[a] and prev_tails[a] > 0.0]
            for a in measured:
                rates[a] = (tails[a] / prev_tails[a]) ** (1.0 / (shape[a] - prev_shape[a]))
            if any(rates[a] >= NON_DECAY_RATE for a in measured if a in grow):
                stop = "boundary mass is not decaying; chain is likely transient"
                break
        if any(shape[a] >= LEVEL_CAP for a in grow):
            stop = f"truncation cap {LEVEL_CAP} reached"
            break
        target = list(shape)
        for a in grow:
            target[a] = _next_level(shape[a], tails[a], rates[a], aim)
        nxt = fit(target, shape)
        if nxt == shape:
            stop = f"state budget exceeded beyond levels {shape}"
            break
        prev_shape, prev_tails, shape = shape, tails, nxt
    return InducedChainSolution(chain.A, chain.free, shape, dist, residual, tail, False, history,
                                "; ".join(filter(None, (budget_note, note, stop))), stats)


def _flows(chain: InducedChain, sol: InducedChainSolution):
    """(z, rate of the moves z) for each of the kernel's blocks in each
    regime of the face, weighed by the stationary mass there."""
    for sig_free, pi in sol.group_masses().items():
        for z, (rows, _, rates) in chain.kernel.q_blocks(chain.full_signature(sig_free)).items():
            yield z, pi @ np.bincount(rows, rates, len(pi))


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
    return obj


@dataclass(eq=False)
class DriftTable:
    """Drift vectors for the canonical saturated subsets.

    Holds a closed-form table, a numeric table, or both; `primary`
    names the one downstream classification reads (closed form when
    available)."""

    mode: str
    lam1: float
    lam3: float
    p: float
    service_rates: tuple
    closed: dict | None
    numeric: dict | None
    cross_check: dict | None
    notes: list

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


def _closed_rates(lam1, lam3, p, mu, K=None):
    """Output rates of queues 1-4 on the five canonical faces under
    (1,K)-limited service, or priority for K=None (`closed_form_table`)."""
    mu1, mu2, mu3, mu4 = mu
    if K is None:
        a1 = a2 = 0.0
        b1, b2, q1, q3 = mu4, mu2, mu1, mu3
    else:
        D1 = 1.0 / mu1 + K / mu4
        D2 = 1.0 / mu3 + K / mu2
        a1, b1, a2, b2 = 1.0 / D1, K / D1, 1.0 / D2, K / D2
        # mu1 * (1 - a2/mu4) and its mirror, in an order that keeps matched
        # stations' (1 + (K-1) mu1/mu2) / D to the bit (the pinned K sweep)
        q1 = (mu1 / mu3 + (K - mu2 / mu4) * mu1 / mu2) / D2
        q3 = (mu3 / mu1 + (K - mu4 / mu2) * mu3 / mu4) / D1
    return {
        SUBSET_ALL: (a1, b2, a2, b1),
        frozenset((1, 2, 3)): (q1, b2, a2, a2),
        frozenset((1, 3, 4)): (a1, a1, q3, b1),
        frozenset((1, 4)): (a1, a1, lam3 + p * a1, b1),
        frozenset((2, 3)): (lam1, b2, a2, a2),
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
    """Closed-form drift entries of a built-in discipline, with any
    PH/MAP inputs and feedback; custom MSPs have none.

    Three rules give every face's output rates:
      - renewal reward: a saturated station cycles through one class-1
        (class-3) service and K of class 4 (class 2), so with D1 = 1/mu1
        + K/mu4 and D2 = 1/mu3 + K/mu2 its queues leave at a = 1/D and
        b = K/D.  Priority is the cycle with no budget: a = 0, b = mu;
      - flow balance: a free queue's output equals its input;
      - work conservation: a saturated queue gets the time its free
        station partner leaves, q1 = mu1 (1 - a2/mu4) on face 123 and
        q3 = mu3 (1 - a1/mu2) on face 134.
    The faces are N (a1, b2, a2, b1), 123 (q1, b2, a2, a2), 134 (a1, a1,
    q3, b1), 14 (a1, a1, lam3 + p a1, b1) and 23 (lam1, b2, a2, a2).
    AssumptionViolated is raised when the nominal condition fails, or
    a face's free queues are not positive recurrent: 123 needs a2 < b1
    and 134 a1 < b2 (a free queue's input below its saturated rate); 14
    needs a1/mu2 + (lam3 + p a1)/mu3 < 1 and 23 lam1/mu1 + a2/mu4 < 1
    (a free station's load).  Sign conditions are left to
    `stability.check_sign_conditions`.
    """
    lam1, lam3 = model.arrival_rates
    mu, p = model.service_rates, model.p
    rho, holds = nominal_condition(model)
    if not holds:
        raise AssumptionViolated(
            f"nominal condition fails: station loads are {rho[0] + rho[3]:.6g} "
            f"and {rho[1] + rho[2]:.6g}"
        )
    if model.discipline == "custom":
        raise ClosedFormUnavailable("no closed-form drift table for discipline 'custom'")
    out = _closed_rates(lam1, lam3, p, mu,
                        model.K if model.discipline == "limited" else None)
    a1, b2, a2, b1 = out[SUBSET_ALL]
    for face, lhs, rhs, rule in (
        ("123", a2, b1, "a2 < b1"),
        ("134", a1, b2, "a1 < b2"),
        ("14", a1 / mu[1] + (lam3 + p * a1) / mu[2], 1.0, "a1/mu2 + (lam3 + p a1)/mu3 < 1"),
        ("23", lam1 / mu[0] + a2 / mu[3], 1.0, "lam1/mu1 + a2/mu4 < 1"),
    ):
        if not lhs < rhs:
            raise AssumptionViolated(
                f"face {face} is not stable: {rule} fails ({lhs:.6g} >= {rhs:.6g})"
            )
    inp = {A: input_rates(model, rates) for A, rates in out.items()}
    return {A: DriftEntry(A, inp[A], rates, inp[A] - rates, "ClosedForm")
            for A, rates in out.items()}


def numeric_entry(model: NetworkModel, A) -> DriftEntry:
    """Numeric drift entry of face A: its induced chain on the model's
    shared kernel, solved by `solve_stationary`; the rates and drifts
    are None when the solve did not converge."""
    chain = build_induced_chain(kernel_of(model), A)
    sol = solve_stationary(chain)
    diag = {
        "levels": sol.levels,
        "residual": sol.residual,
        "tailMass": sol.tail_mass,
        "converged": sol.converged,
        "history": sol.history,
        **(sol.qbd or {}),
    }
    if sol.note:
        diag["note"] = sol.note
    if not sol.converged:
        return DriftEntry(chain.A, None, None, None, "Numeric", diag)
    mu_bar = output_rates(chain, sol)
    inp = input_rates(model, mu_bar)
    drifts = inp - mu_bar
    off = [abs(drifts[i - 1]) for i in range(1, 5) if i not in A]
    diag["offSubsetDriftMax"] = max(off) if off else 0.0
    return DriftEntry(chain.A, inp, mu_bar, drifts, "Numeric", diag)


def numeric_table(model: NetworkModel):
    """Numeric drift entries for the canonical subsets."""
    return {A: numeric_entry(model, A) for A in CANONICAL_SUBSETS}


def drift_table(model: NetworkModel, mode="both") -> DriftTable:
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
        numeric = numeric_table(model)
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

