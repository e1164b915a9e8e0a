"""Trajectory simulation: determinism, agreement with the generator, and
drift corroboration on saturated regimes."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from netdrift import (
    build_network,
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
from netdrift.errors import EmptySubset, InsufficientData
from netdrift.simulator import PIN_LEVEL, SAMPLE_CAP, Trajectory, replication_seeds

from tests.conftest import exp_model, symmetric_limited_model


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
        cums, moves = kernel.clocks(sig)
        diag = -np.diag(kernel.q_blocks(sig)[(0, 0, 0, 0)])
        for j in range(kernel.S0):
            total = cums[j][-1] if cums[j] else 0.0
            assert abs(total - diag[j]) <= 1e-12 * max(1.0, diag[j])
            assert len(moves[j]) == len(cums[j])


def _reference_clocks(kernel, sig):
    """Clocks as arrays: numpy cumulative rates and (z, j2) moves."""
    rates = [[] for _ in range(kernel.S0)]
    moves = [[] for _ in range(kernel.S0)]
    for z, B in kernel.q_blocks(sig).items():
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
    with pytest.raises(EmptySubset):
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
