"""Trajectory simulation of the continuous-time network chain.

Event rates are the competing clocks of the model's shared kernel
(`generator.kernel_of`), read off the same regime blocks as the
assembled generator, so the two cannot drift apart.  Clocks use a
counter-based 64-bit PRNG (Philox) with exponential inversion for event
times, making trajectories reproducible bit for bit from (model, seed,
horizon, initial).

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

from .errors import EmptySubset, InsufficientData
from .generator import SUBSET_ALL, kernel_of
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
        span = self.horizon if self.horizon > 0 else 1.0
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
            "departureRates": [v / span for v in self.departures],
            "emptyReturns": len(self.empty_return_times),
            "emptyReturnsTruncated": self.empty_times_truncated,
            "saturated": sorted(self.saturated) if self.saturated else None,
        }


def _uniforms(rng):
    """The generator's uniforms in stream order, drawn DRAW_BLOCK at a
    time: the same floats as one `rng.random()` call each."""
    while True:
        yield from rng.random(DRAW_BLOCK).tolist()


def _run(model, horizon, seed, initial, pinned):
    if horizon <= 0:
        raise InsufficientData("horizon must be positive to collect samples")
    kernel = kernel_of(model)
    uniforms = _uniforms(
        np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))))
    if initial is None:
        initial = tuple(PIN_LEVEL if i in pinned else 0 for i in range(1, 5)), 0
    x0, j = kernel.check_state(initial)
    # pinned coordinates hold virtual levels in the interior regime; the
    # signature of the free ones follows x move by move
    x = list(x0)
    free = [i + 1 not in pinned for i in range(4)]
    sig = [min(v, 2) if f else 2 for v, f in zip(x, free)]
    cums, moves = kernel.clocks(tuple(sig))

    times = [0.0]
    states = [tuple(x)]
    backgrounds = [j]
    dep_samples = [(0, 0, 0, 0)]
    departures = [0, 0, 0, 0]
    arrivals = [0, 0, 0, 0]
    empty_times = []
    truncated = False
    stride = 1
    since_sample = 0
    t = 0.0
    n_events = 0

    while True:
        cum = cums[j]
        if not cum:
            t = horizon
            break
        total = cum[-1]
        t_next = t + (-math.log(1.0 - next(uniforms)) / total)
        if t_next >= horizon:
            t = horizon
            break
        t = t_next
        # searching cum[:-1] clamps a draw rounded up to the total
        pairs, j = moves[j][bisect_right(cum, next(uniforms) * total, 0, len(cum) - 1)]
        regime_moved = False
        for i, dz in pairs:
            x[i] += dz
            (arrivals if dz > 0 else departures)[i] += 1
            if free[i] and x[i] <= 2:
                sig[i] = x[i]
                regime_moved = True
        n_events += 1
        if regime_moved:
            cums, moves = kernel.clocks(tuple(sig))
            # only a move that changes the regime can empty the network
            if not pinned and not any(x):
                if len(empty_times) < EMPTY_TIMES_CAP:
                    empty_times.append(t)
                else:
                    truncated = True
        since_sample += 1
        if since_sample >= stride:
            since_sample = 0
            times.append(t)
            states.append(tuple(x))
            backgrounds.append(j)
            dep_samples.append(tuple(departures))
            if len(times) >= SAMPLE_CAP:
                times = times[::2]
                states = states[::2]
                backgrounds = backgrounds[::2]
                dep_samples = dep_samples[::2]
                stride *= 2

    times.append(t)
    states.append(tuple(x))
    backgrounds.append(j)
    dep_samples.append(tuple(departures))
    return Trajectory(
        seed=int(seed),
        horizon=float(horizon),
        sample_times=np.array(times),
        sample_states=np.array(states, dtype=np.int64),
        sample_background=np.array(backgrounds, dtype=np.int64),
        sample_departures=np.array(dep_samples, dtype=np.int64),
        empty_return_times=empty_times,
        empty_times_truncated=truncated,
        final_state=(tuple(x), j),
        n_events=n_events,
        departures=list(departures),
        arrivals=list(arrivals),
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
    A = frozenset(int(i) for i in A)
    if not A:
        raise EmptySubset("the saturated subset must be nonempty")
    if not A <= SUBSET_ALL:
        raise EmptySubset(f"subset {sorted(A)} is not within {{1,2,3,4}}")
    return _run(model, horizon, seed, None, A)


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
    slopes = [float(np.polyfit(t, X[:, i], 1)[0]) for i in range(4)]
    span = t[-1] - t[0]
    dep_rates = [float((D[-1, i] - D[0, i]) / span) for i in range(4)]
    edges = np.linspace(0, n, BATCHES + 1, dtype=int)
    slope_batches = [[] for _ in range(4)]
    rate_batches = [[] for _ in range(4)]
    for b in range(BATCHES):
        lo, hi = edges[b], edges[b + 1]
        if hi - lo < 2 or t[hi - 1] <= t[lo]:
            continue
        tb, xb, db = t[lo:hi], X[lo:hi], D[lo:hi]
        for i in range(4):
            slope_batches[i].append(np.polyfit(tb, xb[:, i], 1)[0])
            rate_batches[i].append((db[-1, i] - db[0, i]) / (tb[-1] - tb[0]))
    if any(len(b) < 2 for b in slope_batches):
        raise InsufficientData("too few usable batches for confidence intervals")
    return DriftEstimate(
        slopes=slopes,
        slope_half_widths=[_batch_ci(b) for b in slope_batches],
        departure_rates=dep_rates,
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
