"""Markovian arrival processes and phase-type service distributions.

A MAP is a pair of square matrices ``(C, D)``: ``C`` holds phase
transitions without an arrival (negative diagonal), ``D`` holds the
transitions that emit one, and ``C + D`` is a conservative irreducible
generator.  A PH distribution is a pair ``(beta, H)``: ``beta`` is the
initial probability row vector over transient phases and ``H`` the
nonsingular subgenerator; the exit vector is ``h = -H 1``.

Poisson and exponential inputs are the one-phase special cases; helpers
at the bottom build those plus Erlang and hyperexponential variants.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BetaSumNotOne,
    DimensionMismatch,
    InvalidSubgenerator,
    NegativeProbability,
    NegativeRate,
    ReducibleGenerator,
    RowSumNonzero,
    SingularH,
    SingularSolve,
)

# structural tolerance for exact-by-construction quantities
ZERO_TOL = 1e-12
# tolerance on linear-solve residuals
SOLVE_TOL = 1e-10
# the most phases of an Erlang distribution or states of a built service
# process, checked before any matrix is allocated
MAX_PHASES = 1024


class MAPSpec:
    """Validated Markovian arrival process.

    Attributes
    ----------
    C : ndarray
        Phase transitions without arrivals.
    D : ndarray
        Phase transitions with one arrival.
    dim : int
        Number of phases.
    """

    __slots__ = ("C", "D", "dim")

    def __init__(self, C, D, dim):
        self.C = C
        self.D = D
        self.dim = dim

    def __repr__(self):  # pragma: no cover
        return f"MAPSpec(dim={self.dim})"


class PHSpec:
    """Validated phase-type distribution.

    Attributes
    ----------
    beta : ndarray
        Initial phase distribution (row vector).
    H : ndarray
        Subgenerator over the transient phases.
    h : ndarray
        Exit rate vector, ``-H 1``.
    dim : int
        Number of phases.
    """

    __slots__ = ("beta", "H", "h", "dim")

    def __init__(self, beta, H, h, dim):
        self.beta = beta
        self.H = H
        self.h = h
        self.dim = dim

    def __repr__(self):  # pragma: no cover
        return f"PHSpec(dim={self.dim})"


def _as_square(M, name):
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NegativeRate(f"{name} contains non-finite entries")
    return A


def validate_map(C, D):
    """Validate a MAP pair and return a :class:`MAPSpec`.

    Parameters
    ----------
    C, D : array_like
        Square matrices of equal size.

    Raises
    ------
    DimensionMismatch
        Shapes differ or are not square.
    NegativeRate
        An off-diagonal entry of ``C`` or any entry of ``D`` is negative.
    RowSumNonzero
        A row of ``C + D`` does not sum to zero (tolerance 1e-12).
    ReducibleGenerator
        The graph of positive rates in ``C + D`` is not strongly connected.
    """
    C = _as_square(C, "C")
    D = _as_square(D, "D")
    if C.shape != D.shape:
        raise DimensionMismatch(f"C is {C.shape}, D is {D.shape}")
    m = C.shape[0]
    off = C - np.diag(np.diag(C))
    if off.min(initial=0.0) < -ZERO_TOL:
        raise NegativeRate("off-diagonal entry of C is negative")
    if D.min(initial=0.0) < -ZERO_TOL:
        raise NegativeRate("entry of D is negative")
    rowsum = (C + D).sum(axis=1)
    if np.max(np.abs(rowsum)) > ZERO_TOL:
        raise RowSumNonzero(
            f"rows of C + D must sum to 0, worst residual {np.max(np.abs(rowsum)):.3e}"
        )
    if m > 1:
        # strongly connected iff every phase reaches every other: square
        # the one-step reachability (self-loops added) until it spans
        # paths of m - 1 steps, then ask for an all-true closure
        reach = ((C + D) > ZERO_TOL) | np.eye(m, dtype=bool)
        for _ in range(m.bit_length()):
            reach = reach @ reach
        if not reach.all():
            raise ReducibleGenerator("C + D is not irreducible")
    return MAPSpec(C.copy(), D.copy(), m)


def map_stationary_phase(m):
    """Stationary phase distribution of ``C + D``.

    Solves ``pi (C + D) = 0`` with ``pi 1 = 1``.  The residual of the
    balance equations must come out below 1e-10.
    """
    G = m.C + m.D
    n = m.dim
    A = G.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(f"stationary phase solve failed: {exc}") from exc
    if pi.min() < -ZERO_TOL:
        raise NegativeProbability(f"stationary phase vector has entry {pi.min():.3e}")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    resid = np.max(np.abs(pi @ G))
    if resid > SOLVE_TOL:
        raise SingularSolve(f"stationary phase residual {resid:.3e} exceeds {SOLVE_TOL}")
    return pi


def map_arrival_rate(m):
    """Mean arrival rate ``pi* D 1``."""
    pi = map_stationary_phase(m)
    return float(pi @ m.D.sum(axis=1))


def validate_ph(beta, H):
    """Validate a PH pair and return a :class:`PHSpec`.

    Raises
    ------
    DimensionMismatch
        ``beta`` and ``H`` sizes disagree.
    NegativeProbability
        ``beta`` has a negative entry.
    BetaSumNotOne
        ``beta`` has a non-finite entry or does not sum to one (tolerance
        1e-12).
    InvalidSubgenerator
        ``H`` has a negative off-diagonal entry, a positive diagonal
        entry, or a negative exit rate.
    SingularH
        ``H`` is singular, so the mean service time is undefined.
    """
    beta = np.asarray(beta, dtype=float).ravel()
    H = _as_square(H, "H")
    s = H.shape[0]
    if beta.shape[0] != s:
        raise DimensionMismatch(f"beta has {beta.shape[0]} entries, H is {s}x{s}")
    if not np.all(np.isfinite(beta)):
        raise BetaSumNotOne("beta contains non-finite entries")
    if beta.min(initial=0.0) < -ZERO_TOL:
        raise NegativeProbability("beta has a negative entry")
    if abs(beta.sum() - 1.0) > ZERO_TOL:
        raise BetaSumNotOne(f"beta sums to {beta.sum():.12f}")
    off = H - np.diag(np.diag(H))
    if off.min(initial=0.0) < -ZERO_TOL:
        raise InvalidSubgenerator("off-diagonal entry of H is negative")
    if np.diag(H).max(initial=-np.inf) > ZERO_TOL:
        raise InvalidSubgenerator("diagonal entry of H is positive")
    h = -H.sum(axis=1)
    if h.min() < -ZERO_TOL:
        raise InvalidSubgenerator("a row of H sums to a positive value")
    h = np.clip(h, 0.0, None)
    if np.linalg.cond(H) > 1e14:
        raise SingularH("H is singular or numerically close to it")
    beta = np.clip(beta, 0.0, None)
    beta /= beta.sum()
    return PHSpec(beta, H.copy(), h, s)


def ph_mean(ph):
    """Mean of the PH distribution, ``beta (-H)^{-1} 1``."""
    try:
        x = np.linalg.solve(-ph.H, np.ones(ph.dim))
    except np.linalg.LinAlgError as exc:
        raise SingularH(f"mean solve failed: {exc}") from exc
    return float(ph.beta @ x)


# --- convenience builders -------------------------------------------------

def poisson_map(rate):
    """Poisson process as a one-phase MAP.  ``rate`` may be zero."""
    r = float(rate)
    if r < 0.0:
        raise NegativeRate(f"Poisson rate must be >= 0, got {r}")
    return validate_map([[-r]], [[r]])


def exponential_ph(rate):
    """Exponential service as a one-phase PH."""
    r = float(rate)
    if r <= 0.0:
        raise NegativeRate(f"exponential rate must be > 0, got {r}")
    return validate_ph([1.0], [[-r]])


def erlang_ph(phases, rate):
    """Erlang distribution: `phases` exponential stages, each at `rate`."""
    if isinstance(phases, bool) or not isinstance(phases, (int, float, np.integer, np.floating)) \
            or not np.isfinite(phases) or phases < 1 or phases != int(phases):
        raise DimensionMismatch(f"phase count must be a positive integer, got {phases!r}")
    if phases > MAX_PHASES:
        raise DimensionMismatch(f"phase count {phases!r} is over MAX_PHASES = {MAX_PHASES}")
    k = int(phases)
    r = float(rate)
    if r <= 0.0:
        raise NegativeRate(f"stage rate must be > 0, got {r}")
    H = -r * np.eye(k) + r * np.eye(k, k=1)
    beta = np.zeros(k)
    beta[0] = 1.0
    return validate_ph(beta, H)


def hyperexponential_ph(weights, rates):
    """Mixture of exponentials with the given branch weights."""
    w = np.asarray(weights, dtype=float).ravel()
    r = np.asarray(rates, dtype=float).ravel()
    if w.shape != r.shape:
        raise DimensionMismatch("weights and rates differ in length")
    if r.min(initial=np.inf) <= 0.0:
        raise NegativeRate("every branch rate must be > 0")
    return validate_ph(w, -np.diag(r))


def mmpp_map(Q, rates):
    """Markov-modulated Poisson process from a background generator
    and per-phase arrival rates."""
    Q = _as_square(Q, "Q")
    r = np.asarray(rates, dtype=float).ravel()
    if r.shape[0] != Q.shape[0]:
        raise DimensionMismatch("rates length must match the generator size")
    if r.min(initial=0.0) < 0.0:
        raise NegativeRate("arrival rates must be >= 0")
    return validate_map(Q - np.diag(r), np.diag(r))
