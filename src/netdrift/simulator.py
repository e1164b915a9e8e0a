"""Trajectory simulation of the continuous-time network chain.

Event rates are the competing clocks of the model's shared kernel
(`generator.kernel_of`), read off the same regime blocks as the
assembled generator, so the two cannot drift apart.  Clocks use a
counter-based 64-bit PRNG (Philox) with exponential inversion for event
times, making trajectories reproducible bit for bit from (model, seed,
horizon, initial).

The event loop runs in chunks of DRAW_BLOCK // 2 events, in two passes.
Pass 1, in Python, picks each event's move from the kernel's move table
(`BlockKernel.moves`) and follows the regime.  Pass 2, in numpy, turns
the chunk's moves into event times, cut at the horizon, queue lengths,
counts, empty returns and samples.

Saturated runs pin a subset of queues at an interior level and count
virtual arrivals and departures, realizing the induced-chain law
without unbounded counters.

Finite-horizon simulation cannot distinguish transience from slow
positive recurrence; everything here is corroborative evidence, not a
decision procedure.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .errors import InsufficientData
from .generator import DISPLACEMENTS, SIGNATURES, kernel_of, saturated_subset
from .service_disciplines import NetworkModel

SAMPLE_CAP = 4096
EMPTY_TIMES_CAP = 100_000
DRAW_BLOCK = 4096
PIN_LEVEL = 3


class Trajectory:
    __slots__ = (
        "seed", "horizon", "sample_times", "sample_states", "sample_background",
        "sample_departures", "empty_return_times", "empty_times_truncated",
        "final_state", "n_events", "departures", "arrivals", "saturated",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.pop(name))
        if kw:
            raise TypeError(f"unexpected trajectory fields {sorted(kw)}")

    def summary(self):
        return {
            "seed": self.seed,
            "horizon": self.horizon,
            "events": self.n_events,
            "samples": int(len(self.sample_times)),
            "finalState": {
                "x": [int(v) for v in self.final_state[0]],
                "background": int(self.final_state[1]),
            },
            "departures": [int(v) for v in self.departures],
            "arrivals": [int(v) for v in self.arrivals],
            "departureRates": [v / self.horizon for v in self.departures],
            "emptyReturns": len(self.empty_return_times),
            "emptyReturnsTruncated": self.empty_times_truncated,
            "saturated": sorted(self.saturated) if self.saturated else None,
        }


def _run(model, horizon, seed, initial, pinned):
    # no event time reaches a nan or infinite horizon
    if not 0 < horizon < math.inf:
        raise InsufficientData(f"horizon must be positive and finite, got {horizon}")
    kernel = kernel_of(model)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if initial is None:
        initial = tuple(PIN_LEVEL if i in pinned else 0 for i in range(1, 5)), 0
    x0, j = kernel.check_state(initial)
    # pinned queues hold virtual levels in the interior regime; pass 1 follows the
    # free ones and the regime's flat index in SIGNATURES, which a step dz of
    # queue i moves by dz * W[i] if the queue held at most 1 (dz = 1) or 2 (dz = -1)
    x = list(x0)
    free = [i + 1 not in pinned for i in range(4)]
    W = (27, 9, 3, 1)
    flat = sum(w * (min(v, 2) if f else 2) for v, f, w in zip(x, free, W))
    base, cums = kernel.moves(SIGNATURES[flat])
    regimes, dest, move_z = kernel.regimes, kernel.move_dest, kernel.move_z
    # per displacement number: (queue, step, level bound, flat step) of its free queues
    free_steps = [tuple((i, dz, 1 if dz > 0 else 2, dz * W[i])
                        for i, dz in enumerate(z) if dz and free[i]) for z in DISPLACEMENTS]
    # per displacement number: its steps of the queues and departure counts
    Z = np.array(DISPLACEMENTS, dtype=np.int64)
    steps, per_z = np.hstack([Z, Z < 0]), np.zeros(len(Z), dtype=np.int64)

    # after the last event: the queues and departures, and the background;
    # the samples so far, in buffers of (times, those counts, backgrounds)
    counts, js = np.array([*x0, 0, 0, 0, 0], dtype=np.int64), j
    samples = (np.zeros(SAMPLE_CAP), np.empty((SAMPLE_CAP, 8), dtype=np.int64),
               np.empty(SAMPLE_CAP, dtype=np.int64))
    samples[1][0], samples[2][0] = counts, j
    empty_times, truncated = [], False
    n_samples, stride, since, t, n_events = 1, 1, 0, 0.0, 0

    # chunks of DRAW_BLOCK // 2 events, a (time, choice) pair of draws each
    while True:
        u = rng.random(DRAW_BLOCK)
        # pass 1: the chunk's moves, stopping where no clock runs
        ms = []
        for c in u[1::2].tolist():
            cum = cums[j]
            if not cum:
                break
            # searching cum[:-1] clamps a draw rounded up to the total
            m = base[j] + bisect_right(cum, c * cum[-1], 0, len(cum) - 1)
            ms.append(m)
            j = dest[m]
            queues = free_steps[move_z[m]]
            if queues:
                for i, dz, bound, w in queues:
                    if x[i] <= bound:
                        flat += w
                    x[i] += dz
                base, cums = regimes[flat] or kernel.moves(SIGNATURES[flat])

        # pass 2: event times (by math.log: np.log may differ in the last
        # bit), the cut at the horizon, then counts and samples
        J, zn, total = kernel.move_rows(np.fromiter(ms, np.intp, len(ms))).T
        times = np.fromiter(map(math.log, (1.0 - u[:2 * len(ms):2]).tolist()), float, len(ms))
        times /= -total
        if ms:
            times[0] += t
        times = np.cumsum(times)
        n = int(np.searchsorted(times, horizon))
        times, J, zn = times[:n], J[:n].astype(np.int64), zn[:n].astype(np.intp)
        C = steps.take(zn, axis=0)
        np.cumsum(C, axis=0, out=C)
        C += counts
        per_z += np.bincount(zn, minlength=len(Z))  # events per displacement
        n_events += n
        if not pinned:
            hit = times[Z.any(axis=1).take(zn) & ~C[:, :4].any(axis=1)].tolist()
            room = EMPTY_TIMES_CAP - len(empty_times)
            empty_times += hit[:room]
            truncated = truncated or len(hit) > room
        # every stride-th event is a sample; at SAMPLE_CAP samples, every
        # other one is dropped and the stride doubles
        e, since = stride - 1 - since, since + n
        while e < n:
            take = np.arange(e, n, stride)[:SAMPLE_CAP - n_samples]
            for buf, column in zip(samples, (times, C, J)):
                buf[n_samples:n_samples + len(take)] = column[take]
            n_samples += len(take)
            e = int(take[-1])
            since = n - 1 - e
            if n_samples == SAMPLE_CAP:
                n_samples = (SAMPLE_CAP + 1) // 2
                for buf in samples:
                    buf[:n_samples] = buf[::2]
                stride *= 2
            e += stride
        if n:
            t, counts, js = float(times[-1]), C[-1].copy(), int(J[-1])
        # cut at the horizon, or no clock runs
        if n < DRAW_BLOCK // 2:
            break
        # freed for the next pass 1's regimes: kept, sym K=12 peaks 1.3 MB higher
        del u, ms, J, zn, total, times, C

    for buf, last in zip(samples, (horizon, counts, js)):
        buf[n_samples] = last
    times, C, backgrounds = (buf[:n_samples + 1] for buf in samples)
    return Trajectory(
        seed=int(seed),
        horizon=float(horizon),
        sample_times=times,
        sample_states=C[:, :4],
        sample_background=backgrounds,
        sample_departures=C[:, 4:],
        empty_return_times=empty_times,
        empty_times_truncated=truncated,
        final_state=(tuple(counts[:4].tolist()), js),
        n_events=n_events,
        departures=counts[4:].tolist(),
        arrivals=(per_z[:, None] * (Z > 0)).sum(axis=0).tolist(),
        saturated=frozenset(pinned) if pinned else None,
    )


def simulate(model: NetworkModel, horizon, seed, initial=None) -> Trajectory:
    """Exact trajectory of the network chain up to the horizon.

    `initial` is (x, j), with the background j as
    `BlockKernel.background_index` takes it; None starts empty in j = 0."""
    return _run(model, horizon, seed, initial, frozenset())


def simulate_saturated(model: NetworkModel, A, horizon, seed) -> Trajectory:
    """Trajectory with the queues in A pinned in the interior regime.

    Pinned coordinates report virtual levels (start plus net flow), so
    their sample slopes estimate the face drift directly."""
    return _run(model, horizon, seed, None, saturated_subset(A))


class DriftEstimate:
    __slots__ = ("slopes", "slope_half_widths", "departure_rates",
                 "departure_rate_half_widths", "regime", "n_samples", "window")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.pop(name))
        if kw:
            raise TypeError(f"unexpected estimate fields {sorted(kw)}")

    def to_json_dict(self):
        return {
            "slopes": list(self.slopes),
            "slopeHalfWidths": list(self.slope_half_widths),
            "departureRates": list(self.departure_rates),
            "departureRateHalfWidths": list(self.departure_rate_half_widths),
            "regime": sorted(self.regime) if self.regime else None,
            "samples": self.n_samples,
            "window": list(self.window),
        }


# batch-means batches per estimate: at most 19 degrees of freedom
BATCHES = 20

# Student t 0.975 quantiles for df = 1..BATCHES-1 (stdtrit's values, bit
# for bit), so a simulation loads numpy alone
T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087,
)


def _batch_ci(values):
    values = np.asarray(values, float)
    n = len(values)
    half = T975[n - 2] * values.std(ddof=1) / math.sqrt(n)
    # invariant floor: half-widths are strictly positive even for
    # constant batches
    return float(max(half, np.finfo(float).tiny))


def _slopes(t, X, starts):
    """Least-squares slopes of X's columns against t over the runs of
    samples that begin at `starts`: (runs, columns) numerators over
    (runs, 1) denominators, each run centred on its own means."""
    counts = np.diff(starts, append=len(t))

    def centred(A):
        return A - np.repeat(np.add.reduceat(A, starts) / counts[:, None], counts, axis=0)

    tc, Xc = centred(t[:, None]), centred(X)
    return np.add.reduceat(tc * Xc, starts), np.add.reduceat(tc * tc, starts)


def estimate_drift(traj: Trajectory, burn_in=0.2) -> DriftEstimate:
    """Least-squares queue-length slopes after burn-in, with batch-means
    confidence half-widths, plus windowed departure rates."""
    if not 0.0 <= burn_in < 1.0:
        raise ValueError("burn-in must be a fraction in [0, 1)")
    t = traj.sample_times
    keep = t >= burn_in * traj.horizon
    t = t[keep]
    X = traj.sample_states[keep]
    D = traj.sample_departures[keep]
    n = len(t)
    if n < 100:
        raise InsufficientData(
            f"{n} sample points after burn-in; at least 100 required"
        )
    if t[-1] <= t[0]:
        raise InsufficientData("sample window has zero width")
    num, den = _slopes(t, X, np.array([0]))
    edges = np.linspace(0, n, BATCHES + 1, dtype=int)
    lo, hi = edges[:-1], edges[1:]
    usable = (hi - lo >= 2) & (t[hi - 1] > t[lo])
    if usable.sum() < 2:
        raise InsufficientData("too few usable batches for confidence intervals")
    batch_num, batch_den = _slopes(t, X, lo)
    # (batches, queues) arrays, transposed so each queue's batches are a row
    slope_batches = (batch_num[usable] / batch_den[usable]).T
    lo, hi = lo[usable], hi[usable]
    rate_batches = ((D[hi - 1] - D[lo]) / (t[hi - 1] - t[lo])[:, None]).T
    return DriftEstimate(
        slopes=(num[0] / den[0]).tolist(),
        slope_half_widths=[_batch_ci(b) for b in slope_batches],
        departure_rates=((D[-1] - D[0]) / (t[-1] - t[0])).tolist(),
        departure_rate_half_widths=[_batch_ci(b) for b in rate_batches],
        regime=traj.saturated,
        n_samples=n,
        window=(float(t[0]), float(t[-1])),
    )


def replication_seeds(seed, replications):
    """Independent child seeds, derived deterministically."""
    ss = np.random.SeedSequence(seed)
    return [int(child.generate_state(1, np.uint64)[0]) for child in
            ss.spawn(replications)]
