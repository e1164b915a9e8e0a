"""Trajectory simulation: determinism, agreement with the generator, and
drift corroboration on saturated regimes."""

import itertools
import json

import numpy as np
import pytest

from netdrift import (
    estimate_drift,
    kernel_of,
    simulate,
    simulate_saturated,
)
from netdrift.cli import main
from netdrift.errors import EmptySubset, InsufficientData
from netdrift.simulator import SAMPLE_CAP, replication_seeds

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
            total = cums[j][-1] if cums[j].size else 0.0
            assert abs(total - diag[j]) <= 1e-12 * max(1.0, diag[j])
            assert len(moves[j]) == cums[j].size


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
