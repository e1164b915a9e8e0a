"""Trajectory simulation: determinism, agreement with the generator, and
drift corroboration on saturated regimes."""

import gc
import itertools
import json
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdrift import (
    build_network,
    drift_table,
    erlang_ph,
    estimate_drift,
    exponential_ph,
    hyperexponential_ph,
    kernel_of,
    mmpp_map,
    poisson_map,
    regime_signature,
    simulate,
    simulate_saturated,
)
from netdrift import simulator
from netdrift.cli import main
from netdrift.errors import EmptySubset, InsufficientData, UnsupportedSubset
from netdrift.generator import SIGNATURES
from netdrift.simulator import PIN_LEVEL, SAMPLE_CAP, Trajectory, replication_seeds

from tests.conftest import dense, exp_model, symmetric_limited_model


N = frozenset({1, 2, 3, 4})


@pytest.fixture(scope="module")
def saturated_reference():
    # one long pinned run shared by the agreement tests below
    traj = simulate_saturated(exp_model(), N, horizon=20_000.0, seed=20260814)
    return traj, estimate_drift(traj)


def test_trajectories_are_reproducible(np_model):
    a = simulate(np_model, 300.0, seed=42)
    b = simulate(np_model, 300.0, seed=42)
    assert np.array_equal(a.sample_times, b.sample_times)
    assert np.array_equal(a.sample_states, b.sample_states)
    assert np.array_equal(a.sample_departures, b.sample_departures)
    assert a.n_events == b.n_events
    assert a.final_state == b.final_state
    assert a.summary() == b.summary()

    c = simulate(np_model, 300.0, seed=43)
    assert c.n_events != a.n_events or not np.array_equal(
        a.sample_times, c.sample_times)


def test_moves_are_skip_free_at_event_resolution(np_model):
    traj = simulate(np_model, 20.0, seed=7)
    assert traj.n_events < SAMPLE_CAP  # stride still 1: every event sampled
    steps = np.diff(traj.sample_states, axis=0)
    assert np.abs(steps).max() <= 1
    assert traj.sample_states.min() >= 0


def test_event_rates_match_generator_diagonal(np_model):
    kernel = kernel_of(np_model)
    for sig in itertools.product((0, 1, 2), repeat=4):
        base, cums = kernel.moves(sig)
        diag = -np.diag(dense(kernel.q_blocks(sig)[(0, 0, 0, 0)], kernel.S0))
        for j in range(kernel.S0):
            total = cums[j][-1] if cums[j] else 0.0
            assert abs(total - diag[j]) <= 1e-12 * max(1.0, diag[j])
            # j's moves: one table row each, carrying j's total
            ids = slice(base[j], base[j] + len(cums[j]))
            rows = kernel.move_rows(np.arange(ids.start, ids.stop))
            assert len(rows) == len(cums[j]) and (rows[:, 2] == total).all()
            assert rows[:, 0].tolist() == kernel.move_dest[ids]
            assert rows[:, 1].tolist() == kernel.move_z[ids]


def _reference_clocks(kernel, sig):
    """Clocks as arrays: numpy cumulative rates and (z, j2) moves."""
    rates = [[] for _ in range(kernel.S0)]
    moves = [[] for _ in range(kernel.S0)]
    for z, B in kernel.q_blocks(sig).items():
        B = dense(B, kernel.S0)
        rr, cc = np.nonzero(B > 1e-14)
        for j, j2 in zip(rr.tolist(), cc.tolist()):
            if z == (0, 0, 0, 0) and j == j2:
                continue
            rates[j].append(B[j, j2])
            moves[j].append((z, j2))
    cums = [np.cumsum(np.array(r)) if r else np.zeros(0) for r in rates]
    return cums, moves


def _reference_run(model, horizon, seed, initial, pinned):
    """The event loop as first written: the signature rebuilt from the
    clamped state, a numpy search and two scalar draws per event."""
    kernel = kernel_of(model)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if initial is None:
        x0 = tuple(PIN_LEVEL if i in pinned else 0 for i in range(1, 5))
        j0 = 0
    else:
        x0, j0 = initial
        x0 = tuple(int(v) for v in x0)
        j0 = kernel.background_index(j0)
    x = list(x0)
    j = j0
    clock_tables = {}

    def clamped():
        return tuple(PIN_LEVEL if (i + 1) in pinned else x[i] for i in range(4))

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
        sig = regime_signature(clamped())
        if sig not in clock_tables:
            clock_tables[sig] = _reference_clocks(kernel, sig)
        cums, moves = clock_tables[sig]
        cum = cums[j]
        if cum.size == 0 or cum[-1] <= 0.0:
            t = horizon
            break
        total = cum[-1]
        u = rng.random()
        t_next = t + (-math.log(1.0 - u) / total)
        if t_next >= horizon:
            t = horizon
            break
        t = t_next
        pick = int(np.searchsorted(cum, rng.random() * total, side="right"))
        if pick >= len(moves[j]):
            pick = len(moves[j]) - 1
        z, j2 = moves[j][pick]
        for i in range(4):
            if z[i] > 0:
                arrivals[i] += 1
            elif z[i] < 0:
                departures[i] += 1
            x[i] += z[i]
        j = j2
        n_events += 1
        if not pinned and x[0] == 0 and x[1] == 0 and x[2] == 0 and x[3] == 0 \
                and any(z):
            if len(empty_times) < simulator.EMPTY_TIMES_CAP:
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


def _reference_estimate(traj, burn_in=0.2):
    """The estimator as first written: one np.polyfit per queue for the
    window and per queue and batch, with the same dropping rule."""
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
    edges = np.linspace(0, n, simulator.BATCHES + 1, dtype=int)
    slope_batches = [[] for _ in range(4)]
    rate_batches = [[] for _ in range(4)]
    for b in range(simulator.BATCHES):
        lo, hi = edges[b], edges[b + 1]
        if hi - lo < 2 or t[hi - 1] <= t[lo]:
            continue
        tb, xb, db = t[lo:hi], X[lo:hi], D[lo:hi]
        for i in range(4):
            slope_batches[i].append(np.polyfit(tb, xb[:, i], 1)[0])
            rate_batches[i].append((db[-1, i] - db[0, i]) / (tb[-1] - tb[0]))
    if any(len(b) < 2 for b in slope_batches):
        raise InsufficientData("too few usable batches for confidence intervals")
    return simulator.DriftEstimate(
        slopes=slopes,
        slope_half_widths=[simulator._batch_ci(b) for b in slope_batches],
        departure_rates=dep_rates,
        departure_rate_half_widths=[simulator._batch_ci(b) for b in rate_batches],
        regime=traj.saturated,
        n_samples=n,
        window=(float(t[0]), float(t[-1])),
    )


def _phmap_priority_model():
    return build_network(
        mmpp_map([[-1.0, 1.0], [1.0, -1.0]], [0.5, 1.1]),
        poisson_map(0.4),
        erlang_ph(2, 8.0),
        hyperexponential_ph([0.4, 0.6], [6.0, 2.0]),
        exponential_ph(4.2),
        exponential_ph(2.2),
        0.3,
        "preemptive_resume",
    )


def _assert_same_trajectory(got, want):
    for name in Trajectory.__slots__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert type(a) is type(b) and a == b, name


@pytest.mark.parametrize("case", [
    "plain", "saturated_N", "saturated_14", "phmap", "phase_tuple", "short",
    "drain", "empty_cap",
])
def test_event_loop_matches_reference(case, np_model, monkeypatch):
    model, horizon, seed, initial, pinned = {
        # long enough for the sample stride to double at least once
        "plain": (np_model, 2500.0, 4, None, frozenset()),
        "saturated_N": (np_model, 800.0, 5, None, N),
        "saturated_14": (np_model, 800.0, 6, None, frozenset({1, 4})),
        "phmap": (_phmap_priority_model(), 800.0, 7, ((1, 0, 2, 1), 5),
                  frozenset()),
        "phase_tuple": (np_model, 300.0, 8, ((2, 1, 0, 3), (0, 0, 2, 1)),
                        frozenset()),
        # a handful of events before the horizon cuts the run off
        "short": (np_model, 0.7, 9, ((1, 1, 1, 1), 3), frozenset()),
        # no arrivals: the network empties and its clocks stop
        "drain": (exp_model(lam1=0.0, lam3=0.0), 50.0, 10, ((2, 0, 1, 0), 0),
                  frozenset()),
        # a lowered cap sets the truncation flag within a short run
        "empty_cap": (np_model, 300.0, 11, None, frozenset()),
    }[case]
    if case == "empty_cap":
        monkeypatch.setattr(simulator, "EMPTY_TIMES_CAP", 5)
    want = _reference_run(model, horizon, seed, initial, pinned)
    if pinned:
        got = simulate_saturated(model, pinned, horizon, seed)
    else:
        got = simulate(model, horizon, seed, initial)
    _assert_same_trajectory(got, want)
    if case == "plain":
        assert got.n_events > 2 * SAMPLE_CAP
    if case == "empty_cap":
        assert got.empty_times_truncated and len(got.empty_return_times) == 5
    if case in ("short", "drain"):
        assert got.sample_times[-1] == horizon and got.n_events < 20
    if case == "drain":
        assert got.final_state[0] == (0, 0, 0, 0)


# the models of the property below, built once: priority under both
# disciplines, (1,K)-limited service and PH/MAP
_PROPERTY_MODELS = {
    "non_preemptive": exp_model,
    "preemptive_resume": lambda: exp_model("preemptive_resume"),
    "limited_2": lambda: symmetric_limited_model(2),
    "limited_3": lambda: symmetric_limited_model(3),
    "phmap": _phmap_priority_model,
}
PINNED_SETS = [frozenset(), N, frozenset({1, 4}), frozenset({2, 3})]
CHUNK = simulator.DRAW_BLOCK // 2


def _run_both(model, horizon, seed, initial, pinned):
    """The event loop's trajectory and the reference's, in that order."""
    want = _reference_run(model, horizon, seed, initial, pinned)
    if pinned:
        return simulate_saturated(model, pinned, horizon, seed), want
    return simulate(model, horizon, seed, initial), want


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(_PROPERTY_MODELS)), pinned=st.sampled_from(PINNED_SETS),
       horizon=st.floats(1250.0, 1600.0), seed=st.integers(0, 2 ** 32 - 1))
def test_event_loop_matches_reference_on_random_runs(name, pinned, horizon, seed):
    # every model runs at 3.8 events per unit time or more: past one chunk
    # of draws and one halving of the samples
    got, want = _run_both(_PROPERTY_MODELS[name](), horizon, seed, None, pinned)
    _assert_same_trajectory(got, want)
    assert got.n_events >= SAMPLE_CAP


@pytest.mark.parametrize("case", ["horizon_on_chunk_start", "drain", "empty_cap"])
def test_event_loop_matches_reference_at_chunk_edges(case, np_model, monkeypatch):
    model, horizon, initial = np_model, 900.0, None
    # below SAMPLE_CAP events every event is a sample: sample k is event k
    probe = _reference_run(np_model, horizon, 12, None, frozenset())
    assert CHUNK + CHUNK // 2 < probe.n_events < SAMPLE_CAP - 1
    if case == "horizon_on_chunk_start":
        # the first event of the second chunk lands on the horizon
        horizon = float(probe.sample_times[CHUNK + 1])
    elif case == "drain":
        # no arrivals: the network empties, and its clocks stop, mid-chunk
        model, horizon, initial = exp_model(lam1=0.0, lam3=0.0), 5000.0, ((1500, 0, 0, 0), 0)
    else:
        # the cap is reached at an empty return in the second chunk's
        # middle, and the run ends after one more
        events = np.searchsorted(probe.sample_times, probe.empty_return_times)
        cap = int(np.sum(events <= CHUNK + CHUNK // 2))
        assert CHUNK < events[cap - 1] and events[cap] < probe.n_events
        horizon = float(probe.sample_times[events[cap] + 1])
        monkeypatch.setattr(simulator, "EMPTY_TIMES_CAP", cap)
    got, want = _run_both(model, horizon, 12, initial, frozenset())
    _assert_same_trajectory(got, want)
    if case == "horizon_on_chunk_start":
        assert got.n_events == CHUNK and got.sample_times[-1] == horizon
    elif case == "drain":
        assert got.final_state[0] == (0, 0, 0, 0) and got.n_events > CHUNK
        assert got.n_events % CHUNK and got.sample_times[-1] == horizon
    else:
        assert got.empty_times_truncated and len(got.empty_return_times) == cap


def test_move_table_is_built_once_per_regime():
    model = exp_model()
    for seed in replication_seeds(1, 16):
        simulate_saturated(model, N, 1250.0, seed)
    kernel = kernel_of(model)
    # pinning every queue keeps every run in one regime, built once
    assert [sig for sig, hit in zip(SIGNATURES, kernel.regimes) if hit] == [(2, 2, 2, 2)]
    _, cums = kernel.moves((2, 2, 2, 2))
    assert len(kernel.move_dest) == len(kernel.move_z) == sum(map(len, cums))


def test_move_table_serves_runs_in_turn(np_model):
    # a {1,4} run reads the regimes a plain run built on the same kernel
    for seed, pinned in ((21, frozenset()), (22, frozenset({1, 4}))):
        _assert_same_trajectory(*_run_both(np_model, 800.0, seed, None, pinned))
    # a second model's kernel replaces the first, which is freed, so the
    # first one's id may come back: its table must not
    first = weakref.ref(kernel_of(np_model))
    del np_model
    for seed, model in ((23, exp_model(lam1=0.6)), (24, exp_model(mus=(5.0, 2.4, 4.2, 2.2)))):
        _assert_same_trajectory(*_run_both(model, 800.0, seed, None, frozenset()))
        gc.collect()
        assert first() is None


def _exact_slope(t, x):
    """Least-squares slope of x against t in exact rational arithmetic."""
    t = [Fraction(v) for v in t.tolist()]
    x = [Fraction(v) for v in x.tolist()]
    t_mean, x_mean = sum(t) / len(t), sum(x) / len(x)
    return (sum((a - t_mean) * (b - x_mean) for a, b in zip(t, x))
            / sum((a - t_mean) ** 2 for a in t))


def _stalled(traj, batches):
    """The trajectory with the sample times of the given batches (of a
    zero burn-in) held at their first value, so the estimator drops them."""
    t = traj.sample_times.copy()
    edges = np.linspace(0, len(t), simulator.BATCHES + 1, dtype=int)
    for b in batches:
        t[edges[b]:edges[b + 1]] = t[edges[b]]
    fields = {name: getattr(traj, name) for name in Trajectory.__slots__}
    return Trajectory(**dict(fields, sample_times=t))


@pytest.mark.parametrize("case", ["plain", "saturated_N", "saturated_14", "dropped"])
def test_estimator_matches_reference(case, np_model):
    pinned, horizon, seed = {
        "plain": (None, 2500.0, 4),
        "saturated_N": (N, 1250.0, 5),
        "saturated_14": (frozenset({1, 4}), 800.0, 6),
        "dropped": (None, 2500.0, 4),
    }[case]
    if pinned:
        traj = simulate_saturated(np_model, pinned, horizon, seed)
    else:
        traj = simulate(np_model, horizon, seed)
    burn_in = 0.2
    if case == "dropped":
        traj, burn_in = _stalled(traj, (3, 4, 11)), 0.0
    got = estimate_drift(traj, burn_in)
    want = _reference_estimate(traj, burn_in)
    # rates are the same element-wise arithmetic, so they agree exactly
    for name in ("departure_rates", "departure_rate_half_widths", "n_samples",
                 "window", "regime"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("slopes", "slope_half_widths"):
        for a, b in zip(getattr(got, name), getattr(want, name)):
            assert type(a) is float and abs(a - b) <= 1e-12 * abs(b), (name, a, b)

    # the slopes themselves: the window's and a few batches' against
    # exact least squares on the same samples
    t = traj.sample_times
    keep = t >= burn_in * horizon
    t, X = t[keep], traj.sample_states[keep]
    edges = np.linspace(0, len(t), simulator.BATCHES + 1, dtype=int)
    num, den = simulator._slopes(t, X, edges[:-1])
    checks = [(got.slopes, slice(None))] + [
        ((num[b] / den[b]).tolist(), slice(edges[b], edges[b + 1])) for b in (0, 9, 19)]
    for slopes, rows in checks:
        for i in range(4):
            exact = _exact_slope(t[rows], X[rows, i])
            assert abs(Fraction(slopes[i]) - exact) <= Fraction(1e-13) * abs(exact), \
                (rows, i, slopes[i], float(exact))


def test_estimator_needs_two_usable_batches(np_model):
    traj = _stalled(simulate(np_model, 2500.0, seed=4), range(1, simulator.BATCHES))
    for estimate in (estimate_drift, _reference_estimate):
        with pytest.raises(InsufficientData, match="too few usable batches"):
            estimate(traj, 0.0)


def test_single_queue_busy_fraction():
    # lam3 = 0, p = 0 leaves queue 1 as a plain birth-death queue with
    # load 0.2; compare the time-weighted busy fraction
    model = exp_model(lam1=0.8, lam3=0.0, p=0.0)
    traj = simulate(model, 800.0, seed=11)
    t = traj.sample_times
    busy = traj.sample_states[:-1, 0] >= 1
    frac = float(np.sum(np.diff(t) * busy) / (t[-1] - t[0]))
    assert abs(frac - 0.2) <= 0.05


def test_silent_network_jumps_to_horizon():
    model = exp_model(lam1=0.0, lam3=0.0)
    traj = simulate(model, 50.0, seed=1)
    assert traj.n_events == 0
    assert traj.final_state == ((0, 0, 0, 0), 0)
    assert traj.sample_times[-1] == 50.0
    with pytest.raises(InsufficientData):
        estimate_drift(traj)


def test_saturated_departure_rates_match_table(saturated_reference):
    traj, est = saturated_reference
    target = [0.0, 2.4, 0.0, 2.2]
    for i in range(4):
        assert abs(est.departure_rates[i] - target[i]) <= \
            3.0 * est.departure_rate_half_widths[i] + 1e-9, (i, est.to_json_dict())


def test_saturated_slopes_match_drift_vector(saturated_reference):
    traj, est = saturated_reference
    drift = [0.8, -2.4, 1.12, -2.2]
    for i in range(4):
        assert abs(est.slopes[i] - drift[i]) <= 3.0 * est.slope_half_widths[i], \
            (i, est.to_json_dict())
    assert est.regime == N
    # virtual levels run free below the pin, proving they are not clamped
    assert traj.final_state[0][1] < 0
    assert traj.summary()["saturated"] == [1, 2, 3, 4]


def test_sample_buffer_is_bounded(saturated_reference):
    traj, est = saturated_reference
    assert traj.n_events > SAMPLE_CAP
    assert 100 <= len(traj.sample_times) <= SAMPLE_CAP + 4


def test_alternating_service_throughput():
    model = symmetric_limited_model(2)
    traj = simulate_saturated(model, N, horizon=10_000.0, seed=5)
    est = estimate_drift(traj)
    g = 1.0 / (1.0 / 5.0 + 2.0 / 1.8)
    target = [g, 2.0 * g, g, 2.0 * g]
    for i in range(4):
        assert abs(est.departure_rates[i] - target[i]) <= \
            3.0 * est.departure_rate_half_widths[i], (i, est.to_json_dict())


@pytest.mark.parametrize("face", [N, frozenset({1, 4})])
def test_asymmetric_limited_table_matches_saturated_runs(face):
    # the README rates under the (1,4)-limited discipline: no closed form,
    # so simulation is the independent check of the numeric table, by the
    # rule of the CLI's `agreement` report
    model = exp_model("limited", K=4, mus=(5.0, 2.4, 5.0, 2.2))
    table = drift_table(model, mode="numeric").entry(face).output_rates
    est = estimate_drift(simulate_saturated(model, face, horizon=20_000.0, seed=7))
    for i in range(4):
        assert abs(est.departure_rates[i] - table[i]) <= \
            3.0 * max(est.departure_rate_half_widths[i], 1e-12), (i, est.to_json_dict())


def test_two_face_regime_keeps_free_queues_flat(np_model):
    traj = simulate_saturated(np_model, {1, 4}, horizon=10_000.0, seed=3)
    est = estimate_drift(traj)
    drift = [0.8, 0.0, 0.0, -1.8]
    for i in range(4):
        assert abs(est.slopes[i] - drift[i]) <= \
            3.0 * est.slope_half_widths[i] + 1e-6, (i, est.to_json_dict())
    # queue 2 starves in this regime
    assert est.departure_rates[1] <= 0.01


def test_unstable_configuration_grows():
    # station 2 is overloaded (rho2 + rho3 = 1.2) while station 1 is
    # nearly instantaneous, so the backlog accumulates at station 2
    # instead of cycling through the other queues
    model = exp_model(lam1=1.2, lam3=1.26, p=0.0, mus=(50.0, 2.0, 2.1, 50.0))
    traj = simulate(model, 20_000.0, seed=13)
    est = estimate_drift(traj)
    assert est.slopes[2] > 3.0 * est.slope_half_widths[2], est.to_json_dict()
    combined = est.slopes[1] + est.slopes[2]
    noise = est.slope_half_widths[1] + est.slope_half_widths[2]
    assert combined - noise > 0.0, est.to_json_dict()
    assert traj.final_state[0][1] + traj.final_state[0][2] > 100


def test_oscillating_unstable_configuration_accumulates_total():
    # when every station is slow the instability shows up as a growing
    # oscillation that parks the backlog in whichever queue is blocked;
    # individual slopes are then meaningless but the total count is not
    model = exp_model(lam1=1.2, lam3=1.26, p=0.0, mus=(4.0, 2.0, 2.1, 2.0))
    traj = simulate(model, 20_000.0, seed=13)
    total_end = sum(traj.final_state[0])
    assert total_end > 5_000
    mid = np.searchsorted(traj.sample_times, 10_000.0)
    total_mid = int(traj.sample_states[mid].sum())
    assert 0 < total_mid < total_end


def test_empty_returns_are_recorded(np_model):
    traj = simulate(np_model, 500.0, seed=2)
    times = traj.empty_return_times
    assert len(times) >= 1
    assert all(b > a for a, b in zip(times, times[1:]))
    assert not traj.empty_times_truncated


def test_insufficient_data_paths(np_model):
    with pytest.raises(InsufficientData):
        simulate(np_model, 0.0, seed=1)
    short = simulate(np_model, 1.0, seed=1)
    with pytest.raises(InsufficientData):
        estimate_drift(short)
    with pytest.raises(ValueError):
        estimate_drift(simulate(np_model, 100.0, seed=1), burn_in=1.0)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
def test_non_finite_horizon_is_refused(np_model, horizon):
    with pytest.raises(InsufficientData):
        simulate(np_model, horizon, seed=1)
    with pytest.raises(InsufficientData):
        simulate_saturated(np_model, {1, 4}, horizon, seed=1)


def test_t_table_matches_stdtrit():
    from scipy.special import stdtrit

    assert len(simulator.T975) == 19
    for df, t in enumerate(simulator.T975, start=1):
        assert t == stdtrit(df, 0.975), df


@pytest.mark.parametrize("n", [2, 20])
def test_batch_ci_matches_stdtrit_formula(n):
    # the first and last table entries: estimate_drift never has more
    # than BATCHES batches
    from scipy.special import stdtrit

    values = np.random.default_rng(n).normal(1.0, 0.3, n)
    old = stdtrit(n - 1, 0.975) * values.std(ddof=1) / math.sqrt(n)
    assert simulator._batch_ci(values) == float(max(old, np.finfo(float).tiny))


def test_saturation_subset_validation(np_model):
    with pytest.raises(EmptySubset):
        simulate_saturated(np_model, [], 10.0, seed=1)
    with pytest.raises(UnsupportedSubset):
        simulate_saturated(np_model, {0, 1}, 10.0, seed=1)


def test_replication_seeds_are_stable():
    seeds = replication_seeds(12345, 8)
    assert seeds == replication_seeds(12345, 8)
    assert len(set(seeds)) == 8
    assert all(isinstance(s, int) for s in seeds)
    assert replication_seeds(12346, 8) != seeds


def test_initial_state_is_respected(np_model):
    traj = simulate(np_model, 5.0, seed=9, initial=((2, 1, 0, 3), 4))
    assert tuple(traj.sample_states[0]) == (2, 1, 0, 3)
    assert traj.sample_background[0] == 4
    traj = simulate(np_model, 5.0, seed=9, initial=((2, 1, 0, 3), (0, 0, 2, 2)))
    assert traj.sample_background[0] == 8
    with pytest.raises(ValueError):
        simulate(np_model, 5.0, seed=9, initial=((-1, 0, 0, 0), 0))
    # both ends of the background range are rejected, not wrapped or
    # left to an IndexError mid-run
    for j in (-1, 9, 99, (0, 0, 3, 0)):
        with pytest.raises(ValueError):
            simulate(np_model, 5.0, seed=9, initial=((0, 0, 0, 0), j))


def test_initial_queue_lengths_are_checked(np_model):
    # a named ValueError, not an IndexError from inside the event loop
    for x in ((1, 2, 3), (0, 0, 0, 0, 1), (0, -2, 0, 0)):
        with pytest.raises(ValueError, match=re.escape(str(x))):
            simulate(np_model, 5.0, seed=9, initial=(x, 0))


def test_replications_share_one_kernel(tmp_path, capsys, kernel_builds):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "arrivals": [{"poisson": 0.8}, {"poisson": 0.4}],
        "services": [{"exponential": m} for m in (4.0, 2.4, 4.2, 2.2)],
        "discipline": "non_preemptive",
        "p": 0.3,
    }))
    assert main(["simulate", str(model), "--replications", "4",
                 "--horizon", "50"]) == 0
    capsys.readouterr()
    assert len(kernel_builds) == 1
