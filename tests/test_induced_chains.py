"""Induced saturated chains: stationary solves, drift vectors, and the
closed-form / numeric cross-check."""

import math
from functools import reduce

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdrift import (
    CANONICAL_SUBSETS,
    build_induced_chain,
    build_network,
    classify,
    closed_form_table,
    drift_table,
    erlang_ph,
    exponential_ph,
    hyperexponential_ph,
    kernel_of,
    mean_displacement,
    mmpp_map,
    numeric_table,
    output_rates,
    poisson_map,
    solve_stationary,
    subset_name,
)
from netdrift import induced_chains
from netdrift.errors import (
    AssumptionViolated,
    EmptySubset,
    NotConverged,
    UnsupportedSubset,
)
from netdrift.generator import SUBSET_ALL, assemble_lattice
from netdrift.induced_chains import (
    CROSS_CHECK_TOL,
    TAIL_TOL,
    InducedChainSolution,
    input_rates,
)

from tests.conftest import exp_model, symmetric_limited_model


N = frozenset({1, 2, 3, 4})


def test_subset_validation():
    kernel = kernel_of(exp_model())
    with pytest.raises(EmptySubset):
        build_induced_chain(kernel, [])
    with pytest.raises(UnsupportedSubset):
        build_induced_chain(kernel, {1, 5})


def test_fully_saturated_chain_solves_exactly(np_model):
    # no free coordinate: a single finite background chain, solved directly
    kernel = kernel_of(np_model)
    chain = build_induced_chain(kernel, N)
    sol = solve_stationary(chain)
    assert sol.converged
    assert sol.dist.shape == (kernel.S0,)
    assert sol.residual <= 1e-12
    assert sol.tail_mass == 0.0
    assert abs(sol.dist.sum() - 1.0) <= 1e-12


def test_virtual_station_chain_reduces_to_single_server_queue(np_model):
    # With queues 2 and 3 saturated, station 2 works on class 2 only, so
    # queue 4 receives nothing and drains; queue 1 is then a plain
    # single-server queue with load lam1/mu1 = 0.2 and its stationary
    # level marginal is geometric.
    kernel = kernel_of(np_model)
    chain = build_induced_chain(kernel, {2, 3})
    assert chain.free == (1, 4)
    sol = solve_stationary(chain)
    assert sol.converged

    # all mass sits at x4 = 0
    assert sol.dist[:, 1:, :].sum() <= 1e-9

    marg = sol.dist.sum(axis=(1, 2))
    rho1 = 0.8 / 4.0
    assert abs(marg[0] - (1.0 - rho1)) <= 1e-6
    for lvl in range(6):
        assert marg[lvl + 1] / marg[lvl] == pytest.approx(rho1, abs=1e-6)

    groups = sol.group_masses()
    total = sum(float(v.sum()) for v in groups.values())
    assert total == pytest.approx(1.0, abs=1e-12)


def _slice_group_masses(sol):
    """Group masses cut out by per-axis slices: the layout the lattice
    rule (`generator.signature_ranges`) must reproduce."""
    d = len(sol.free)
    S0 = sol.dist.shape[-1]
    if d == 0:
        return {(): sol.dist.reshape(S0)}
    out = {}
    for sig in np.ndindex(*(3,) * d):
        slices = []
        empty = False
        for c, L in zip(sig, sol.dist.shape):
            if c == 0:
                slices.append(slice(0, 1))
            elif c == 1:
                if L < 2:
                    empty = True
                    break
                slices.append(slice(1, 2))
            else:
                if L < 3:
                    empty = True
                    break
                slices.append(slice(2, L))
        if empty:
            continue
        block = sol.dist[tuple(slices)]
        out[tuple(sig)] = block.reshape(-1, S0).sum(axis=0)
    return out


@pytest.mark.parametrize("L", [1, 2, 3, 8])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_group_masses_match_slice_reference(d, L):
    S0 = 5
    free = tuple(range(5 - d, 5))
    # a square box and one whose last axis is longer than the others
    shapes = {(L,) * d, (L,) * (d - 1) + (L + 2,)} if d else {()}
    for shape in shapes:
        dist = np.random.default_rng(10 * d + L).random(shape + (S0,))
        sol = InducedChainSolution(SUBSET_ALL - set(free), free, shape, dist,
                                   0.0, 0.0, True, [], "")
        got, ref = sol.group_masses(), _slice_group_masses(sol)
        assert got.keys() == ref.keys()
        for sig, mass in ref.items():
            assert np.array_equal(got[sig], mass), (shape, sig)


def test_alternate_virtual_station_chain_converges(np_model):
    kernel = kernel_of(np_model)
    chain = build_induced_chain(kernel, {1, 4})
    assert chain.free == (2, 3)
    sol = solve_stationary(chain)
    assert sol.converged
    assert sol.tail_mass <= 1e-6
    # queue 2 starves (station 1 is monopolized by class 4)
    assert sol.dist[1:, :, :].sum() <= 1e-9


def test_noncanonical_transient_subset_is_flagged(np_model):
    # Saturating {1,2,4} feeds queue 3 at rate lam3 + p*mu2 while class 2
    # monopolizes station 2, so queue 3 never completes and the free
    # chain is transient.  The solver must refuse to converge.
    kernel = kernel_of(np_model)
    chain = build_induced_chain(kernel, {1, 2, 4})
    sol = solve_stationary(chain, levels=4, cap=16)
    assert not sol.converged
    assert sol.tail_mass > 1e-3
    assert sol.note
    with pytest.raises(NotConverged):
        output_rates(chain, sol)


def test_start_level_above_cap_starts_at_cap(np_model):
    chain = build_induced_chain(kernel_of(np_model), {2, 3})
    sol = solve_stationary(chain, levels=40, cap=16)
    assert sol.converged
    assert sol.history[0][0] == (16, 16)
    assert max(max(shape) for shape, _, _ in sol.history) <= 16


def test_start_level_over_state_budget_solves_at_largest_fitting_level(
        np_model, monkeypatch):
    # 32 x 32 cells times S0 = 9 is over the budget, 20 x 20 fits; the
    # {2,3} face (geometric, ratio 0.2) converges there
    kernel = kernel_of(np_model)
    chain = build_induced_chain(kernel, {2, 3})
    monkeypatch.setattr(induced_chains, "MAX_STATES", 20 ** 2 * kernel.S0 + 5)
    sol = solve_stationary(chain, levels=32)
    assert sol.converged
    assert sol.history[0][0] == (20, 20)
    assert sol.levels == (20, 20)
    assert "state budget" in sol.note

    # a budget below the S0 = 9 background states fails before any solve
    monkeypatch.setattr(induced_chains, "MAX_STATES", kernel.S0 - 1)
    sol = solve_stationary(chain)
    assert not sol.converged and sol.history == []
    assert sol.residual is None and sol.tail_mass is None
    assert sol.note == "state budget 8 is below 9 background states"

    # a face that needs more states than the budget holds fails with a
    # named reason after solving at the largest box that fits: at 12^2
    # cells, the decay calls for 9 x 16, which fits exactly; at 10 x 12
    # cells, the slow axis (queue 3) is cut back to 13
    limited = kernel_of(symmetric_limited_model(3))
    chain = build_induced_chain(limited, {1, 4})
    for cells, boxes in ((12 ** 2, [(8, 8), (9, 16)]), (10 * 12, [(8, 8), (9, 13)])):
        monkeypatch.setattr(induced_chains, "MAX_STATES", cells * limited.S0)
        sol = solve_stationary(chain)
        assert not sol.converged
        assert [shape for shape, _, _ in sol.history] == boxes
        assert "state budget" in sol.note


def test_failed_solves_fail_loudly(np_model, monkeypatch):
    # 8 x 8 cells x 9 background states; this face grows queue 1 to 11
    kernel = kernel_of(np_model)
    chain = build_induced_chain(kernel, {2, 3})

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "spilu", singular)
    sol = solve_stationary(chain)
    assert not sol.converged and sol.history == []
    assert "ilu-gmres" in sol.note
    assert "RuntimeError: Factor is exactly singular" in sol.note
    with pytest.raises(NotConverged, match="ilu-gmres"):
        output_rates(chain, sol)

    # every face fails, and each one is named among the reasons
    for model in (np_model, FROZEN_PHASE_MODEL):
        report = classify(model, mode="numeric", assume_semi_irreducible=True)
        assert report.classification == "Inconclusive"
        for A in CANONICAL_SUBSETS:
            assert any(f"on face {subset_name(A)} unavailable" in r
                       and "ilu-gmres" in r for r in report.reasons), \
                (subset_name(A), report.reasons)
    monkeypatch.undo()

    # GMRES stopping short at the second level keeps the first level's
    # history
    gmres = spla.gmres
    calls = []

    def stalled(*args, **kwargs):
        calls.append(None)
        x, info = gmres(*args, **kwargs)
        return x, 300 if len(calls) > 1 else info

    monkeypatch.setattr(spla, "gmres", stalled)
    sol = solve_stationary(chain)
    assert not sol.converged
    assert [shape for shape, _, _ in sol.history] == [(8, 8)]
    assert sol.note.startswith("levels (11, 8): ilu-gmres")
    assert "info 300" in sol.note and "residual" in sol.note

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spla, "spilu", exhausted)
    with pytest.raises(MemoryError):
        solve_stationary(chain)


def _phmap_priority_model(u, discipline):
    lam1 = 0.3 + 0.3 * u[0]
    switch = 0.5 + 1.5 * u[1]
    spread = 0.1 + 0.4 * u[2]
    lam3 = 0.2 + 0.3 * u[3]
    p = 0.4 * u[4]
    mu1 = lam1 / (0.15 + 0.15 * u[5])
    mu2 = lam1 / (0.2 + 0.25 * u[6])
    weight = 0.3 + 0.4 * u[7]
    fast = 2.0 * mu2
    slow = (1.0 - weight) / (1.0 / mu2 - weight / fast)
    load3 = p * lam1 + lam3
    mu4 = load3 / (0.2 + 0.25 * u[8])
    return build_network(
        mmpp_map([[-switch, switch], [switch, -switch]],
                 [lam1 * (1 - spread), lam1 * (1 + spread)]),
        poisson_map(lam3),
        erlang_ph(2, 2.0 * mu1),
        hyperexponential_ph([weight, 1.0 - weight], [fast, slow]),
        exponential_ph(2.0 * mu4),
        exponential_ph(mu4),
        p,
        discipline,
    )


@st.composite
def phmap_priority_models(draw):
    """Priority models with MMPP class-1 arrivals, Erlang-2 and
    hyperexponential services, every class load at most 0.45 so that a
    32-level truncation converges on every face."""
    u = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(9)]
    return _phmap_priority_model(
        u, draw(st.sampled_from(("non_preemptive", "preemptive_resume"))))


# the all-zeros draw under preemptive resume (S0 = 40): while class 4 is
# saturated, class 1 is never served and the phase of its interrupted
# Erlang-2 service is frozen, so faces N, {1,3,4} and {1,4} have two
# closed classes
FROZEN_PHASE_MODEL = _phmap_priority_model([0.0] * 9, "preemptive_resume")


def test_faces_with_two_closed_classes_converge():
    kernel = kernel_of(FROZEN_PHASE_MODEL)
    for A in (N, frozenset({1, 3, 4}), frozenset({1, 4})):
        chain = build_induced_chain(kernel, A)
        sol = solve_stationary(chain)
        assert sol.converged
        assert "2 closed classes" in sol.note
        # the reference: the other closed class of the same truncation,
        # solved densely
        Q = assemble_lattice(chain.q_blocks, sol.levels, kernel.S0)
        R = Q / -Q.diagonal().min()
        count, labels = connected_components(R, connection="strong")
        rows, cols = R.nonzero()
        closed = set(range(count)) - set(labels[rows[labels[rows] != labels[cols]]])
        assert len(closed) == 2
        solved = labels[np.argmax(sol.dist.ravel() > 0)]
        assert solved in closed
        other = labels == (closed - {solved}).pop()
        B = R.toarray()[np.ix_(other, other)].T
        B[0, :] = 1.0
        rhs = np.zeros(other.sum())
        rhs[0] = 1.0
        pi = np.zeros(R.shape[0])
        pi[other] = np.linalg.solve(B, rhs)
        assert np.max(np.abs(pi @ R)) <= 1e-12
        ref = InducedChainSolution(A, chain.free, sol.levels,
                                   pi.reshape(sol.dist.shape), 0.0, 0.0, True,
                                   [], "")
        np.testing.assert_allclose(output_rates(chain, sol),
                                   output_rates(chain, ref),
                                   rtol=1e-10, atol=0.0, err_msg=subset_name(A))


@settings(max_examples=5, deadline=None)
@given(st.one_of(st.integers(min_value=3, max_value=6).map(symmetric_limited_model),
                 phmap_priority_models()))
@example(FROZEN_PHASE_MODEL)
def test_decay_sized_truncation_matches_fixed_level(model):
    kernel = kernel_of(model)
    for A in CANONICAL_SUBSETS:
        chain = build_induced_chain(kernel, A)
        sized = solve_stationary(chain)
        fixed = solve_stationary(chain, levels=32, cap=32)
        assert sized.converged and fixed.converged
        # each level reports the residual its solve was checked against
        assert all(0.0 <= r <= 1e-9 for _, r, _ in sized.history + fixed.history)
        d = len(chain.free)
        if d:
            assert sized.history[0][0] == (8,) * d
            assert [shape for shape, _, _ in fixed.history] == [(32,) * d]
        # a rate's truncation error is about the boundary mass times that
        # rate's boundary-to-mean ratio; MMPP bursts push the ratio above
        # one (up to 1.2 seen), so rates agree within 2 * TAIL_TOL
        np.testing.assert_allclose(output_rates(chain, sized),
                                   output_rates(chain, fixed),
                                   rtol=2 * TAIL_TOL, atol=1e-12)
    if model.discipline != "limited":
        # class 2 has priority at station 2: saturating {1,2,4} starves
        # queue 3 while it keeps receiving, as in the np_model case above
        sol = solve_stationary(build_induced_chain(kernel, {1, 2, 4}))
        assert not sol.converged
        assert sol.note


def _lift(dims, idx, w):
    parts = [np.ones(k) for k in dims]
    parts[idx] = w
    return reduce(np.kron, parts)


def _reference_output_rates(model, chain, sol):
    """Completion rates read off the station MSPs: each completion
    matrix's row sums, lifted to the background and weighed by the
    stationary mass of the regime they apply in."""
    t1, t2 = model.msp1.t, model.msp2.t
    dims = chain.kernel.dims

    def sym(c):
        return "0" if c == 0 else "+"

    def star(c):
        return "1*" if c == 1 else "2*"

    mu = np.zeros(4)
    for sig_free, pi in sol.group_masses().items():
        c1, c2, c3, c4 = chain.full_signature(sig_free)
        if c1 >= 1:
            mu[0] += pi @ _lift(dims, 2, t1[star(c1) + sym(c4)].sum(axis=1))
        if c2 >= 1:
            mu[1] += pi @ _lift(dims, 3, t2[sym(c3) + star(c2)].sum(axis=1))
        if c3 >= 1:
            mu[2] += pi @ _lift(dims, 3, t2[star(c3) + sym(c2)].sum(axis=1))
        if c4 >= 1:
            mu[3] += pi @ _lift(dims, 2, t1[sym(c1) + star(c4)].sum(axis=1))
    return mu


@pytest.mark.parametrize("which", ["np", "pr", "limited3", "phmap"])
def test_output_rates_match_msp_reference(which):
    if which == "phmap":
        model = build_network(
            mmpp_map([[-1.0, 1.0], [1.0, -1.0]], [0.5, 1.1]),
            poisson_map(0.4),
            erlang_ph(2, 8.0),
            hyperexponential_ph([0.4, 0.6], [6.0, 2.0]),
            exponential_ph(4.2),
            exponential_ph(2.2),
            0.3,
            "preemptive_resume",
        )
    elif which == "limited3":
        model = symmetric_limited_model(3)
    else:
        model = exp_model("non_preemptive" if which == "np" else "preemptive_resume")
    kernel = kernel_of(model)
    for A in CANONICAL_SUBSETS:
        chain = build_induced_chain(kernel, A)
        sol = solve_stationary(chain)
        np.testing.assert_allclose(output_rates(chain, sol),
                                   _reference_output_rates(model, chain, sol),
                                   rtol=1e-13, atol=0.0, err_msg=str(sorted(A)))


@pytest.mark.parametrize("subset", [N, frozenset({2, 3}), frozenset({1, 4})])
def test_drift_equals_uniformization_rate_times_step_mean(np_model, subset):
    # the drift from output rates and the routing identity equals the
    # mean displacement per unit time of every move
    kernel = kernel_of(np_model)
    chain = build_induced_chain(kernel, subset)
    sol = solve_stationary(chain)
    mu_bar = output_rates(chain, sol)
    drift = input_rates(np_model, mu_bar) - mu_bar
    step = mean_displacement(chain, sol)
    assert np.max(np.abs(drift - step)) <= 1e-8


def test_input_rate_identity(np_model):
    table = drift_table(np_model, mode="numeric", levels=32, cap=128)
    for A in CANONICAL_SUBSETS:
        e = table.numeric[A]
        out = e.output_rates
        expected = np.array([0.8, out[0], 0.4 + 0.3 * out[1], out[2]])
        assert np.max(np.abs(e.input_rates - expected)) <= 1e-12


@pytest.mark.parametrize(
    "model",
    [
        exp_model("non_preemptive"),
        exp_model("preemptive_resume"),
    ],
    ids=["non_preemptive", "preemptive_resume"],
)
def test_numeric_matches_closed_form_priority(model):
    table = drift_table(model, mode="both", levels=32, cap=128)
    cross = table.cross_check
    assert cross["ok"], cross
    assert cross["worst"] <= 1e-4


def test_numeric_matches_closed_form_limited():
    table = drift_table(symmetric_limited_model(3), mode="both",
                        levels=32, cap=128)
    cross = table.cross_check
    assert cross["ok"], cross
    assert cross["worst"] <= 1e-4


def test_limited_face_grows_only_its_slow_axis():
    # on face {1,4} of the symmetric K=3 model, queue 2 decays by about
    # 0.12 per level and queue 3 by about 0.56, so only queue 3's axis
    # grows far; a square box sized by queue 3 would hold 26 x 26 cells
    model = symmetric_limited_model(3)
    kernel = kernel_of(model)
    chain = build_induced_chain(kernel, {1, 4})
    sol = solve_stationary(chain)
    assert sol.converged
    q2, q3 = sol.levels
    assert q2 <= 12 and q3 >= 24
    assert math.prod(sol.levels) <= 0.4 * 26 ** 2
    closed = closed_form_table(model)[frozenset({1, 4})]
    np.testing.assert_allclose(output_rates(chain, sol), closed.output_rates,
                               rtol=CROSS_CHECK_TOL, atol=0.0)


def test_limited_k2_faces_need_a_quarter_of_a_square_box():
    # the slow queue of each 2-D face of the symmetric K=2 model needs
    # about 38 levels and the fast one about 14, so each face ends well
    # inside a quarter of a 64 x 64 box
    model = symmetric_limited_model(2)
    table = drift_table(model, mode="both")
    assert table.cross_check["ok"], table.cross_check
    for A in (frozenset({1, 4}), frozenset({2, 3})):
        diag = table.numeric[A].diagnostics
        assert diag["converged"]
        assert math.prod(diag["levels"]) < 64 ** 2 / 4, diag["levels"]


def test_off_subset_drift_vanishes(np_model):
    table = drift_table(np_model, mode="numeric", levels=32, cap=128)
    for A in CANONICAL_SUBSETS:
        e = table.numeric[A]
        assert e.diagnostics["offSubsetDriftMax"] <= 1e-5


def test_exponential_disciplines_share_numeric_drifts():
    # with exponential services the preemption rule cannot matter in any
    # saturated stationary regime; force equal truncation and compare
    t_np = drift_table(exp_model("non_preemptive"), mode="numeric",
                       levels=32, cap=64)
    t_pr = drift_table(exp_model("preemptive_resume"), mode="numeric",
                       levels=32, cap=64)
    for A in CANONICAL_SUBSETS:
        a = t_np.numeric[A].drifts
        b = t_pr.numeric[A].drifts
        assert a is not None and b is not None
        assert np.max(np.abs(a - b)) <= 1e-9


def test_limited_closed_form_approaches_priority_as_budget_grows():
    # gap(K) between the limited table and the priority table decays
    # like 1/K; it does not vanish at any finite K
    lam, mu1, mu2 = 1.0, 5.0, 1.8
    prio = exp_model("non_preemptive", lam1=lam, lam3=lam, p=0.0,
                     mus=(mu1, mu2, mu1, mu2))
    base = closed_form_table(prio)

    def gap(K):
        model = exp_model("limited", K=K, lam1=lam, lam3=lam, p=0.0,
                          mus=(mu1, mu2, mu1, mu2))
        lim = closed_form_table(model)
        return max(
            float(np.max(np.abs(lim[A].drifts - base[A].drifts)))
            for A in CANONICAL_SUBSETS
        )

    gaps = {K: gap(K) for K in (12, 50, 200)}
    assert gaps[50] < gaps[12]
    assert gaps[200] < gaps[50]
    for K, g in gaps.items():
        assert g > 1e-4          # never collapses onto the priority table
        assert K * g <= 6.0      # but decays at a 1/K rate


def test_closed_form_guards():
    # nominal overload
    with pytest.raises(AssumptionViolated):
        closed_form_table(exp_model(lam1=1.2, mus=(4.0, 1.0, 4.2, 2.2)))
    # priority form needs mu1 > mu2, mu3 > mu4
    with pytest.raises(AssumptionViolated):
        closed_form_table(exp_model(mus=(2.0, 2.4, 4.2, 2.2)))
    # limited form needs the symmetric configuration
    with pytest.raises(AssumptionViolated):
        closed_form_table(exp_model("limited", K=3))
    # and a budget above the critical one
    with pytest.raises(AssumptionViolated):
        closed_form_table(
            exp_model("limited", K=1, lam1=1.0, lam3=1.0, p=0.0,
                      mus=(5.0, 1.8, 5.0, 1.8)))


def test_table_rejects_unknown_subset(np_model):
    table = drift_table(np_model, mode="closed")
    with pytest.raises(UnsupportedSubset):
        table.entry({1, 2})


def test_direction_zeroes_stable_coordinates(np_model):
    table = drift_table(np_model, mode="closed")
    d = table.direction({2, 3})
    full = table.drifts({2, 3})
    assert d[0] == 0.0 and d[3] == 0.0
    assert d[1] == full[1] and d[2] == full[2]


def test_closed_form_drifts_scale_linearly():
    base = closed_form_table(exp_model())
    for c in (0.1, 10.0):
        scaled = closed_form_table(
            exp_model(lam1=0.8 * c, lam3=0.4 * c,
                      mus=(4.0 * c, 2.4 * c, 4.2 * c, 2.2 * c)))
        for A in CANONICAL_SUBSETS:
            assert np.allclose(scaled[A].drifts, c * base[A].drifts,
                               rtol=1e-12, atol=1e-12)


def test_markovian_inputs_cross_check():
    # modulated arrivals into queue 1 and a two-stage class-1 service;
    # the priority closed form depends on rates only and must still
    # agree with the numeric table
    model = build_network(
        mmpp_map([[-1.0, 1.0], [1.0, -1.0]], [0.5, 1.1]),
        poisson_map(0.4),
        erlang_ph(2, 8.0),
        exponential_ph(2.4),
        exponential_ph(4.2),
        exponential_ph(2.2),
        0.3,
    )
    table = drift_table(model, mode="both", levels=32, cap=128)
    assert table.lam1 == pytest.approx(0.8, abs=1e-12)
    cross = table.cross_check
    assert cross["ok"], cross
    assert cross["worst"] <= 1e-4
    for A in CANONICAL_SUBSETS:
        assert table.numeric[A].diagnostics["offSubsetDriftMax"] <= 1e-5


def test_numeric_table_reports_unstable_subset_without_drifts():
    # lam1 > mu1 makes the {2,3} chain itself transient; the entry must
    # carry no drift vector and downstream access must fail loudly
    model = exp_model(lam1=5.0, mus=(4.0, 2.4, 4.2, 2.2))
    entries = numeric_table(model, levels=4, cap=8)
    e = entries[frozenset({2, 3})]
    assert e.drifts is None
    assert not e.diagnostics["converged"]
