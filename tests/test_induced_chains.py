"""Induced saturated chains: stationary solves, drift vectors, and the
closed-form / numeric cross-check."""

import math
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from hypothesis import assume, example, given, settings
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
from netdrift.generator import SUBSET_ALL, lattice_triplets
from netdrift.induced_chains import (
    CROSS_CHECK_TOL,
    TAIL_TOL,
    InducedChain,
    InducedChainSolution,
    _flows,
    _next_level,
    input_rates,
    nominal_condition,
    numeric_entry,
)

from tests.conftest import (
    as_custom,
    exp_model,
    face_solves_only,
    lattice_csr,
    symmetric_limited_model,
)


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

    # queue 1 is the QBD's level: its cells 0, 1 and >= 2 hold 1 - rho1,
    # (1 - rho1) rho1 and rho1^2
    assert sol.levels == (None, 4) and sol.dist.shape[0] == 3
    marg = sol.dist.sum(axis=(1, 2))
    rho1 = 0.8 / 4.0
    np.testing.assert_allclose(marg, [1.0 - rho1, (1.0 - rho1) * rho1, rho1 ** 2],
                               rtol=0.0, atol=1e-6)

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


def test_noncanonical_transient_subset_is_flagged(np_model, monkeypatch):
    # Saturating {1,2,4} feeds queue 3 at rate lam3 + p*mu2 while class 2
    # monopolizes station 2, so queue 3 never completes and the free
    # chain is transient.  The solver must refuse to converge: as a QBD,
    # by the mean drift condition, before any reduction step (tier 1
    # raises RuntimeWarnings as errors); on its box, by the non-decaying
    # boundary mass.
    kernel = kernel_of(np_model)
    chain = build_induced_chain(kernel, {1, 2, 4})
    monkeypatch.setattr(induced_chains, "LEVEL_CAP", 16)
    sol = solve_stationary(chain)
    assert not sol.converged and sol.history == []
    assert sol.dist is None and sol.tail_mass is None
    assert sol.note == ("levels (None,): qbd refused: mean drift condition fails: up rate "
                        "1.12 >= down rate 0 on the kept phases; not positive recurrent")
    with pytest.raises(NotConverged, match="mean drift condition fails"):
        output_rates(chain, sol)

    monkeypatch.setattr(induced_chains, "QBD_PHASES", 0)
    sol = solve_stationary(chain)
    assert not sol.converged
    assert sol.tail_mass > 1e-3
    assert "not decaying" in sol.note
    with pytest.raises(NotConverged):
        output_rates(chain, sol)


def test_growth_never_passes_the_level_cap(monkeypatch):
    # face {1,4} of the symmetric K=3 model converges at (8, None) as a
    # QBD, queue 3 being the untruncated level, and at (9, 26) on its
    # box; a cap of 6 stops either with a named reason
    chain = build_induced_chain(kernel_of(symmetric_limited_model(3)), {1, 4})
    monkeypatch.setattr(induced_chains, "LEVEL_CAP", 6)
    for path in ("qbd", "box"):
        if path == "box":
            monkeypatch.setattr(induced_chains, "QBD_PHASES", 0)
        sol = solve_stationary(chain)
        assert not sol.converged and sol.note.endswith("truncation cap 6 reached")
        assert 6 in sol.history[-1][0]
        assert max(max(L for L in shape if L) for shape, *_ in sol.history) <= 6
        assert ({h[3] for h in sol.history} == {"qbd"}) == (path == "qbd")


def test_a_tail_with_no_decay_rate_grows_by_one_level():
    # a measured rate of 0 leaves no mass past the next level
    assert _next_level(8, 1e-3, 0.0, 5e-7) == 9


def test_start_level_over_state_budget_solves_at_largest_fitting_level(
        np_model, monkeypatch):
    # the box path: 32 x 32 cells times S0 = 9 is over the budget, 20 x 20
    # fits; the {2,3} face (geometric, ratio 0.2) converges there
    monkeypatch.setattr(induced_chains, "QBD_PHASES", 0)
    kernel = kernel_of(np_model)
    chain = build_induced_chain(kernel, {2, 3})
    monkeypatch.setattr(induced_chains, "MAX_STATES", 20 ** 2 * kernel.S0 + 5)
    monkeypatch.setattr(induced_chains, "START_LEVEL", 32)
    sol = solve_stationary(chain)
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
    # named reason after solving at the largest box that fits: from 8 x 8
    # at 12^2 cells, the decay calls for 9 x 16, which fits exactly; at
    # 10 x 12 cells, the slow axis (queue 3) is cut back to 13
    limited = kernel_of(symmetric_limited_model(3))
    chain = build_induced_chain(limited, {1, 4})
    monkeypatch.setattr(induced_chains, "START_LEVEL", 8)
    for cells, boxes in ((12 ** 2, [(8, 8), (9, 16)]), (10 * 12, [(8, 8), (9, 13)])):
        monkeypatch.setattr(induced_chains, "MAX_STATES", cells * limited.S0)
        sol = solve_stationary(chain)
        assert not sol.converged
        assert [shape for shape, *_ in sol.history] == boxes
        assert "state budget" in sol.note

    # as a QBD, the face's dense blocks hold (L * S0)^2 entries: a budget
    # of (6 * S0)^2 stops queue 2's axis at 6, short of the 8 it needs
    monkeypatch.undo()
    monkeypatch.setattr(induced_chains, "MAX_STATES", (6 * limited.S0) ** 2)
    sol = solve_stationary(chain)
    assert not sol.converged
    assert [shape for shape, *_ in sol.history] == [(4, None), (6, None)]
    assert sol.note == "state budget exceeded beyond levels (6, None)"

    # a QBD's start over the budget is cut back as a box's is: at (3 *
    # S0)^2, queue 2's axis starts at 3, not at the default 4
    monkeypatch.setattr(induced_chains, "MAX_STATES", (3 * limited.S0) ** 2)
    sol = solve_stationary(chain)
    assert not sol.converged
    assert [shape for shape, *_ in sol.history] == [(3, None)]
    assert sol.note == ("levels (4, None) exceed the state budget; started at (3, None); "
                        "state budget exceeded beyond levels (3, None)")


def test_faces_with_a_free_coordinate_share_one_qbd_rule(monkeypatch):
    # S0 * START_LEVEL = 100 on sym K=3: within QBD_PHASES every face with
    # a free coordinate, 1-D or 2-D, is a QBD, and past it none is
    kernel = kernel_of(symmetric_limited_model(3))
    assert kernel.S0 * induced_chains.START_LEVEL == 100
    for cap, qbd in ((100, True), (99, False)):
        monkeypatch.setattr(induced_chains, "QBD_PHASES", cap)
        for A in ({1, 2, 3}, {1, 3, 4}, {1, 4}, {2, 3}):
            sol = solve_stationary(build_induced_chain(kernel, A))
            assert sol.converged
            paths = {path for *_, path in sol.history}
            assert (paths == {"qbd"}) if qbd else ("qbd" not in paths), (A, cap, sol.history)


def _singular_ilu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _singular_lu(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


def test_failed_solves_fail_loudly(np_model, monkeypatch):
    # on its box from 8 x 8 cells x 9 background states, this face grows
    # queue 1 to 11; as a QBD it starts with 8 x 9 phases.  Every solver
    # fails here, so a failure that fell through to another path would
    # show.
    kernel = kernel_of(np_model)
    chain = build_induced_chain(kernel, {2, 3})
    monkeypatch.setattr(spla, "spilu", _singular_ilu)
    monkeypatch.setattr(np.linalg, "solve", face_solves_only(_singular_lu, np.linalg.solve))
    lu_reason = "LinAlgError: Singular matrix"
    qbd_phases = induced_chains.QBD_PHASES
    for qbd, dense, path, reason, levels in (
            (0, 0, "ilu-gmres", "RuntimeError: Factor is exactly singular", (8, 8)),
            (0, 10 ** 9, "dense-lu", lu_reason, (8, 8)),
            (qbd_phases, 400, "qbd", lu_reason, (None, 8))):
        monkeypatch.setattr(induced_chains, "QBD_PHASES", qbd)
        monkeypatch.setattr(induced_chains, "DENSE_STATES", dense)
        with monkeypatch.context() as m:
            m.setattr(induced_chains, "START_LEVEL", 8)
            sol = solve_stationary(chain)
        assert not sol.converged and sol.history == []
        assert sol.note == f"levels {levels}: {path} failed: {reason}"
        with pytest.raises(NotConverged, match=path):
            output_rates(chain, sol)

        # every face fails, and each one is named among the reasons; as
        # QBDs, all but face N, which has no level.  Stations that fail the
        # decomposition guard put faces 14 and 23 through a solver too
        for model in (as_custom(np_model, coupled=True),
                      as_custom(FROZEN_PHASE_MODEL, coupled=True)):
            report = classify(model, mode="numeric", assume_semi_irreducible=True)
            assert report.classification == "Inconclusive"
            for A in CANONICAL_SUBSETS:
                failure = ("dense-lu failed: " + lu_reason if path == "qbd" and A == N
                           else f"{path} failed: {reason}")
                assert any(f"on face {subset_name(A)} unavailable" in r and failure in r
                           for r in report.reasons), (subset_name(A), report.reasons)
    monkeypatch.undo()

    # GMRES stopping short at the second level keeps the first level's
    # history
    monkeypatch.setattr(induced_chains, "QBD_PHASES", 0)
    monkeypatch.setattr(induced_chains, "DENSE_STATES", 0)
    gmres = spla.gmres
    calls = []

    def stalled(*args, **kwargs):
        calls.append(None)
        x, info = gmres(*args, **kwargs)
        return x, 300 if len(calls) > 1 else info

    monkeypatch.setattr(spla, "gmres", stalled)
    monkeypatch.setattr(induced_chains, "START_LEVEL", 8)
    sol = solve_stationary(chain)
    assert not sol.converged
    assert [shape for shape, *_ in sol.history] == [(8, 8)]
    assert sol.note.startswith("levels (11, 8): ilu-gmres")
    assert "info 300" in sol.note and "residual" in sol.note

    # so does an LU result off stationarity, with no GMRES to fall back on
    monkeypatch.undo()
    monkeypatch.setattr(induced_chains, "QBD_PHASES", 0)
    monkeypatch.setattr(spla, "spilu", _singular_ilu)
    lu = np.linalg.solve
    calls = []

    def off(*args, **kwargs):
        calls.append(None)
        x = lu(*args, **kwargs)
        return x if len(calls) == 1 else x - 0.1

    monkeypatch.setattr(np.linalg, "solve", face_solves_only(off, lu))
    monkeypatch.setattr(induced_chains, "START_LEVEL", 8)
    sol = solve_stationary(chain)
    assert not sol.converged
    assert [(shape, path) for shape, _, _, path in sol.history] == [((8, 8), "dense-lu")]
    assert sol.note.startswith("levels (11, 8): dense-lu failed: least entry")
    assert "GMRES" not in sol.note and "residual" in sol.note

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.undo()
    for qbd, dense, module, name in ((0, 0, spla, "spilu"), (0, 10 ** 9, np.linalg, "solve"),
                                     (qbd_phases, 400, np.linalg, "solve")):
        monkeypatch.setattr(induced_chains, "QBD_PHASES", qbd)
        monkeypatch.setattr(induced_chains, "DENSE_STATES", dense)
        monkeypatch.setattr(module, name, face_solves_only(exhausted, getattr(module, name)))
        with pytest.raises(MemoryError):
            solve_stationary(chain)
        monkeypatch.undo()


def test_qbd_whose_levels_do_not_repeat_fails_its_stationarity_check():
    # level 3 of the box moves down at 1.5 times level 2's rates, so its
    # levels >= 2 do not repeat, and the balance at level 2 shows it
    chain = build_induced_chain(kernel_of(symmetric_limited_model(3)), {1, 2, 3})
    rows, cols, data, n = lattice_triplets(chain.q_blocks, (4,), chain.kernel.S0)
    dist, residual, path, stats, note = induced_chains._stationary_of(
        rows, cols, data, n, qbd=True)
    assert dist.shape == (3, n // 4) and residual <= 1e-12 and stats["lrIterations"] >= 1
    down = (rows >= 3 * n // 4) & (cols < 3 * n // 4)
    with pytest.raises(induced_chains._SolveFailed,
                       match=r"^qbd failed: least entry .*stationarity residual"):
        induced_chains._stationary_of(rows, cols, np.where(down, 1.5 * data, data), n, qbd=True)


def test_qbd_whose_level_zero_is_transient_fails_by_name():
    # one phase, and level 1 never moves down: the kept class holds levels
    # 1 and up alone, and the level-by-level boundary solve normalises at
    # level 0
    Q = np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, -1.0, 1.0, 0.0],
                  [0.0, 2.0, -3.0, 1.0], [0.0, 0.0, 2.0, -2.0]])
    rows, cols = np.nonzero(Q)
    with pytest.raises(induced_chains._SolveFailed,
                       match="^qbd failed: the kept class holds no level-0 state$"):
        induced_chains._stationary_of(rows, cols, Q[rows, cols], 4, qbd=True)


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


def test_faces_with_two_closed_classes_converge(monkeypatch):
    kernel = kernel_of(FROZEN_PHASE_MODEL)
    for A in (N, frozenset({1, 3, 4}), frozenset({1, 4})):
        chain = build_induced_chain(kernel, A)
        qbd = solve_stationary(chain)
        assert qbd.converged
        assert "2 closed classes" in qbd.note
        with monkeypatch.context() as m:
            m.setattr(induced_chains, "QBD_PHASES", 0)
            sol = solve_stationary(chain)
        assert sol.converged
        assert "2 closed classes" in sol.note
        # the reference: the other closed class of the box's truncation,
        # solved densely
        Q = lattice_csr(chain.q_blocks, sol.levels, kernel.S0)
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
        # the QBD solve differs from the box's by the box's truncation
        np.testing.assert_allclose(output_rates(chain, qbd),
                                   output_rates(chain, ref),
                                   rtol=2 * TAIL_TOL, atol=0.0, err_msg=subset_name(A))


def _reference_closed_classes(rows, cols, n):
    """csgraph's strong components: the closed-class count and the class
    of the lowest-indexed state in a closed class."""
    Q = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    count, labels = connected_components(Q, directed=True, connection="strong")
    exits = np.zeros(count, dtype=bool)
    exits[labels[rows[labels[rows] != labels[cols]]]] = True
    first = int(np.argmax(~exits[labels]))
    return count - int(exits.sum()), np.flatnonzero(labels == labels[first])


@st.composite
def digraphs(draw):
    """Edge lists on up to 40 states in canonical order: up to three
    groups closed by a cycle, and free states whose edges go anywhere,
    so that some are transient, some closed on their own and some have
    no edge at all."""
    n = draw(st.integers(min_value=1, max_value=40))
    group = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    edges = set()
    for g in range(1, 4):
        members = [v for v in range(n) if group[v] == g]
        edges |= set(zip(members, members[1:] + members[:1]))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    # an edge out of a group must stay in it, or the group is not closed
    edges |= {(u, v) for u, v in pairs if group[u] in (0, group[v])}
    key = np.unique(np.array(sorted(edges), dtype=np.int64).reshape(-1, 2) @ [n, 1])
    return key // n, key % n, n


@settings(max_examples=200, deadline=None)
@given(digraphs())
# a transient cycle below the closed class; a transient state below two
# closed classes
@example((np.array([0, 1, 1, 2, 3, 4]), np.array([1, 0, 3, 3, 4, 3]), 5))
@example((np.array([0, 0, 1, 2, 3, 4]), np.array([1, 3, 2, 1, 4, 3]), 5))
def test_closed_class_finder_matches_strong_components(graph):
    rows, cols, n = graph
    count, keep = induced_chains._closed_classes(rows, cols, n)
    ref_count, ref_keep = _reference_closed_classes(rows, cols, n)
    assert count == ref_count
    np.testing.assert_array_equal(keep, ref_keep)


@pytest.mark.parametrize("model", [exp_model(), FROZEN_PHASE_MODEL], ids=["np", "frozen"])
def test_closed_class_finder_matches_on_every_face_level(model, monkeypatch):
    # every call a face solve makes, on its QBD's four levels or on its
    # box, is checked against csgraph
    finder = induced_chains._closed_classes
    counts = []

    def checked(rows, cols, n):
        count, keep = finder(rows, cols, n)
        ref_count, ref_keep = _reference_closed_classes(rows, cols, n)
        assert count == ref_count, n
        np.testing.assert_array_equal(keep, ref_keep)
        counts.append(count)
        return count, keep

    monkeypatch.setattr(induced_chains, "_closed_classes", checked)
    kernel = kernel_of(model)
    for qbd_phases in (induced_chains.QBD_PHASES, 0):
        monkeypatch.setattr(induced_chains, "QBD_PHASES", qbd_phases)
        for A in CANONICAL_SUBSETS:
            assert solve_stationary(build_induced_chain(kernel, A)).converged
    assert len(counts) >= 10
    assert max(counts) == (2 if model is FROZEN_PHASE_MODEL else 1)


@pytest.mark.parametrize("model, A", [
    (exp_model(mus=(5.0, 2.4, 5.0, 2.2)), frozenset({2, 3})),
    (symmetric_limited_model(3), frozenset({1, 2, 3})),
], ids=["readme-23", "limited3-123"])
def test_dense_and_iterative_solves_agree(model, A, monkeypatch):
    # the box path's two solvers
    monkeypatch.setattr(induced_chains, "QBD_PHASES", 0)
    chain = build_induced_chain(kernel_of(model), A)
    sols = {}
    for dense, path in ((10 ** 9, "dense-lu"), (0, "ilu-gmres")):
        monkeypatch.setattr(induced_chains, "DENSE_STATES", dense)
        sol = solve_stationary(chain)
        assert sol.converged and {h[3] for h in sol.history} == {path}
        sols[path] = sol
    lu, ilu = sols["dense-lu"], sols["ilu-gmres"]
    assert [h[0] for h in lu.history] == [h[0] for h in ilu.history]
    drift = {path: input_rates(model, output_rates(chain, sol)) - output_rates(chain, sol)
             for path, sol in sols.items()}
    np.testing.assert_allclose(drift["dense-lu"], drift["ilu-gmres"], rtol=0.0, atol=1e-12)


def test_failed_face_keeps_every_note(monkeypatch):
    # a start cut back by the budget, and two closed classes on the last
    # level, are still named when the face then fails to converge
    kernel = kernel_of(FROZEN_PHASE_MODEL)
    chain = build_induced_chain(kernel, {1, 4})
    monkeypatch.setattr(induced_chains, "QBD_PHASES", 0)
    monkeypatch.setattr(induced_chains, "MAX_STATES", 3 * 4 * kernel.S0)
    sol = solve_stationary(chain)
    assert not sol.converged
    assert sol.note.startswith("levels (4, 4) exceed the state budget; started at (3, 4); "
                               "2 closed classes; solved the one holding state ")
    assert sol.note.endswith("; state budget exceeded beyond levels (3, 4)")


# the README arrivals and services under the (1,4)-limited discipline
ASYM_K4_MODEL = exp_model("limited", K=4, mus=(5.0, 2.4, 5.0, 2.2))


@settings(max_examples=5, deadline=None)
@given(st.one_of(st.integers(min_value=3, max_value=6).map(symmetric_limited_model),
                 phmap_priority_models()))
@example(FROZEN_PHASE_MODEL)
@example(ASYM_K4_MODEL)
def test_decay_sized_truncation_matches_fixed_level(model):
    # the box path's decay-sized boxes, and the QBD faces, against one
    # fixed box
    kernel = kernel_of(model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(induced_chains, "QBD_PHASES", 0)
        sized = {A: solve_stationary(build_induced_chain(kernel, A)) for A in CANONICAL_SUBSETS}
        mp.setattr(induced_chains, "START_LEVEL", 32)
        mp.setattr(induced_chains, "LEVEL_CAP", 32)
        solved = {A: (sized[A], solve_stationary(build_induced_chain(kernel, A)))
                  for A in CANONICAL_SUBSETS}
    for A in CANONICAL_SUBSETS:
        chain = build_induced_chain(kernel, A)
        sized, fixed = solved[A]
        assert sized.converged and fixed.converged
        # each level reports the residual its solve was checked against
        assert all(0.0 <= r <= 1e-9 for _, r, *_ in sized.history + fixed.history)
        d = len(chain.free)
        if d:
            assert sized.history[0][0] == (4,) * d
            assert [shape for shape, *_ in fixed.history] == [(32,) * d]
        # a rate's truncation error is about the boundary mass times that
        # rate's boundary-to-mean ratio; MMPP bursts push the ratio above
        # one (up to 1.2 seen), so rates agree within 2 * TAIL_TOL
        np.testing.assert_allclose(output_rates(chain, sized),
                                   output_rates(chain, fixed),
                                   rtol=2 * TAIL_TOL, atol=1e-12)
        qbd = solve_stationary(chain)
        assert qbd.converged
        assert {h[3] for h in qbd.history} == ({"qbd"} if d else {"dense-lu"})
        np.testing.assert_allclose(output_rates(chain, qbd), output_rates(chain, fixed),
                                   rtol=2 * TAIL_TOL, atol=1e-12, err_msg=subset_name(A))
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


def mean_displacement(chain: InducedChain, sol: InducedChainSolution) -> np.ndarray:
    """Mean displacement per unit time, all four coordinates (saturated
    ones use the full, unreduced moves)."""
    a = np.zeros(4)
    for z, flow in _flows(chain, sol):
        for i in range(4):
            a[i] += z[i] * flow
    return a


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
    table = drift_table(np_model, mode="numeric")
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
    table = drift_table(model, mode="both")
    cross = table.cross_check
    assert cross["ok"], cross
    assert cross["worst"] <= 1e-4


def test_numeric_matches_closed_form_limited():
    table = drift_table(symmetric_limited_model(3), mode="both")
    cross = table.cross_check
    assert cross["ok"], cross
    assert cross["worst"] <= 1e-4


def test_limited_face_grows_only_its_slow_axis(monkeypatch):
    # on face {1,4} of the symmetric K=3 model, queue 2 decays by about
    # 0.12 per level and queue 3 by about 0.56, so only queue 3's axis
    # grows far; a square box sized by queue 3 would hold 26 x 26 cells.
    # As a QBD, queue 3 is the untruncated level and queue 2 stays short.
    model = symmetric_limited_model(3)
    kernel = kernel_of(model)
    chain = build_induced_chain(kernel, {1, 4})
    closed = closed_form_table(model)[frozenset({1, 4})]
    for path in ("qbd", "box"):
        if path == "box":
            monkeypatch.setattr(induced_chains, "QBD_PHASES", 0)
            monkeypatch.setattr(induced_chains, "START_LEVEL", 8)
        sol = solve_stationary(chain)
        assert sol.converged
        q2, q3 = sol.levels
        if path == "box":
            assert q2 <= 12 and q3 >= 24
            assert math.prod(sol.levels) <= 0.4 * 26 ** 2
        else:
            assert q2 <= 8 and q3 is None
            assert sol.dist.shape == (q2, 3, kernel.S0)
        np.testing.assert_allclose(output_rates(chain, sol), closed.output_rates,
                                   rtol=CROSS_CHECK_TOL, atol=0.0)


def test_limited_k2_faces_need_a_quarter_of_a_square_box(monkeypatch):
    # the slow queue of each 2-D face of the symmetric K=2 model needs
    # about 38 levels and the fast one about 14, so each face's box ends
    # well inside a quarter of a 64 x 64 box.  As QBDs, the slow queue
    # is the untruncated level and the fast one stays under 16 levels.
    # The table reads these faces off their sub-faces, so each is solved
    # here and its drifts cross-checked as the table would
    model = symmetric_limited_model(2)
    kernel = kernel_of(model)
    closed = closed_form_table(model)
    for path in ("qbd", "box"):
        if path == "box":
            monkeypatch.setattr(induced_chains, "QBD_PHASES", 0)
            monkeypatch.setattr(induced_chains, "START_LEVEL", 8)
        table = drift_table(model, mode="both")
        assert table.cross_check["ok"], table.cross_check
        for A in (frozenset({1, 4}), frozenset({2, 3})):
            chain = build_induced_chain(kernel, A)
            sol = solve_stationary(chain)
            assert sol.converged
            mu = output_rates(chain, sol)
            drifts, want = input_rates(model, mu) - mu, closed[A].drifts
            for i in sorted(A):
                gap = abs(drifts[i - 1] - want[i - 1]) / max(abs(want[i - 1]), 1e-8)
                assert gap <= CROSS_CHECK_TOL, (subset_name(A), i, gap)
            if path == "box":
                assert math.prod(sol.levels) < 64 ** 2 / 4, sol.levels
                continue
            fast = [L for L in sol.levels if L is not None]
            assert len(fast) == 1 and fast[0] < 16, sol.levels
            assert all(len(h) == 4 and None in h[0] and h[3] == "qbd" for h in sol.history)
            assert sol.qbd["lrIterations"] >= 1 and sol.qbd["gRowSumError"] <= 1e-12
            assert 0 < sol.qbd["downPhases"] <= sol.qbd["phases"]


@pytest.mark.parametrize("K", range(2, 11))
def test_qbd_faces_match_the_limited_closed_form(K):
    # the 0-D and 1-D faces carry round-off alone; a 2-D face's error
    # is its fast axis's truncation, at most about its boundary mass
    model = symmetric_limited_model(K)
    kernel = kernel_of(model)
    closed = closed_form_table(model)
    for A in CANONICAL_SUBSETS:
        chain = build_induced_chain(kernel, A)
        sol = solve_stationary(chain)
        assert sol.converged
        got, want = output_rates(chain, sol), closed[A].output_rates
        if len(chain.free) <= 1:
            assert {h[3] for h in sol.history} == {"qbd" if chain.free else "dense-lu"}
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=subset_name(A))
        else:
            assert sol.tail_mass <= TAIL_TOL
            np.testing.assert_allclose(got, want, rtol=2 * TAIL_TOL, atol=0.0,
                                       err_msg=subset_name(A))


def _reference_qbd(rows, cols, data, n):
    """The QBD path of `induced_chains._stationary_of` as it was before it
    used the structure of its blocks: logarithmic reduction on dense q x q blocks
    with a running product, and levels 0..2 solved as one dense system."""
    m = n // 4
    closed, keep = induced_chains._closed_classes(rows, cols, n)
    note = (f"{closed} closed classes; solved the one holding state {keep[0]} "
            f"({keep.size} states)" if closed > 1 else "")
    P = np.flatnonzero(np.bincount(keep[keep >= 2 * m] % m, minlength=m))
    kept = np.concatenate([keep[keep < 2 * m], 2 * m + P])
    q, s = P.size, kept.size - P.size
    Q = np.zeros((3 * m, n))
    on = rows < 3 * m
    Q[rows[on], cols[on]] = data[on]
    U, L, D = (Q[2 * m + P, k * m:(k + 1) * m] for k in (3, 2, 1))
    Up, Lp, Dp, I = U[:, P], L[:, P], D[:, P], np.eye(q)
    r = -data[rows == cols].min(initial=0.0)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if q:
                A = (Up + Lp + Dp).T / r
                A[0] = 1.0
                alpha = np.linalg.solve(A, I[0])
                up, down = alpha @ U.sum(axis=1), alpha @ D.sum(axis=1)
                if not up < down:
                    return None, None, None, (
                        f"qbd refused: mean drift condition fails: up rate {up:.6g} >= "
                        f"down rate {down:.6g} on the kept phases; not positive recurrent")
            H, Lo = np.hsplit(np.linalg.solve(-Lp, np.hstack([Up, Dp])), [q])
            G, T, steps = Lo, H, 0
            while T.sum(axis=1).max(initial=0.0) > 1e-15:
                if steps == 64:
                    return None, None, None, "qbd failed: logarithmic reduction did not converge"
                H, Lo = np.hsplit(np.linalg.solve(I - H @ Lo - Lo @ H,
                                                  np.hstack([H @ H, Lo @ Lo])), [q])
                G, T, steps = G + T @ Lo, T @ H, steps + 1
            R = np.linalg.solve((-Lp - Up @ G).T, Up.T).T
            RD = R @ Dp
            M = Q[np.ix_(kept, kept)]
            M[s:, s:] += RD
            M = M.T / r
            M[0] = np.concatenate([np.ones(s), np.linalg.solve(I - R, np.ones(q))])
            x = np.linalg.solve(M, np.eye(s + q)[0])
            above = np.linalg.solve((I - R).T, x[s:])
    except induced_chains._SOLVE_ERRORS as exc:
        return None, None, None, f"qbd failed: {type(exc).__name__}: {exc}"
    pi = np.zeros(n)
    pi[kept], pi[3 * m + P] = x, x[s:] @ R
    flows = np.bincount(cols, pi[rows] * data, minlength=n)[:3 * m]
    top = x[s:] @ U + pi[3 * m + P] @ L + (pi[3 * m + P] @ R) @ D
    resid = max(np.abs(flows).max(), np.abs(top).max(initial=0.0),
                np.abs(Up + R @ (Lp + RD)).max(initial=0.0)) / r
    least = min(x.min(), above.min(initial=0.0))
    if not (least >= -1e-8 and resid <= 1e-9):
        return None, None, None, (f"qbd failed: least entry {least:.3g}, "
                                  f"stationarity residual {resid:.3g}")
    pi[2 * m + P] = above
    dist = np.clip(pi[:3 * m], 0.0, None).reshape(3, m)
    gap = float(np.abs(1.0 - G.sum(axis=1)).max(initial=0.0))
    return dist / dist.sum(), float(resid), {"lrIterations": steps, "gRowSumError": gap}, note


def _assert_matches_reference_qbd(got, rows, cols, data, n):
    """`got`, the structured QBD solve of one box, against the dense
    reference; returns its diagnostics."""
    dist, residual, path, stats, note = got
    ref_dist, ref_residual, ref_stats, ref_note = _reference_qbd(rows, cols, data, n)
    assert note == ref_note
    assert ref_dist is not None and dist is not None, note
    np.testing.assert_allclose(dist, ref_dist, rtol=0.0, atol=1e-13)
    assert residual <= 1e-12 and ref_residual <= 1e-12
    assert stats["lrIterations"] == ref_stats["lrIterations"]
    assert stats["gRowSumError"] <= 1e-12
    assert 0 <= stats["downPhases"] <= stats["phases"] <= n // 4
    return stats


@pytest.mark.parametrize("model", [
    *(symmetric_limited_model(K) for K in range(2, 9)),
    exp_model("limited", K=4, mus=(5.0, 2.4, 5.0, 2.2)),
    exp_model(mus=(5.0, 2.4, 5.0, 2.2)),
    exp_model("preemptive_resume", mus=(5.0, 2.4, 5.0, 2.2)),
    _phmap_priority_model([0.5] * 9, "non_preemptive"),
    FROZEN_PHASE_MODEL,
], ids=[*(f"sym-k{K}" for K in range(2, 9)), "asym-k4", "readme", "preemptive", "phmap",
        "frozen"])
def test_qbd_solve_matches_the_dense_reference(model, monkeypatch):
    # every box a face solve hands to the QBD solver, at every level of
    # its fast axis, solved both ways
    solve = induced_chains._stationary_of
    seen = []

    def checked(*box, qbd=False):
        got = solve(*box, qbd=qbd)
        if qbd:
            seen.append(_assert_matches_reference_qbd(got, *box))
        return got

    monkeypatch.setattr(induced_chains, "_stationary_of", checked)
    kernel = kernel_of(model)
    for A in CANONICAL_SUBSETS:
        assert solve_stationary(build_induced_chain(kernel, A)).converged
    assert len(seen) >= 4


def test_qbd_down_moves_enter_few_phases():
    # on face {1,4} of the symmetric K=6 model a down move of queue 3
    # enters fewer than a fifth of the kept phases
    chain = build_induced_chain(kernel_of(symmetric_limited_model(6)), {1, 4})
    stats = solve_stationary(chain).qbd
    assert 0 < 5 * stats["downPhases"] < stats["phases"]


def test_qbd_solve_memory_grows_with_the_blocks_it_reads(monkeypatch):
    # the final QBD box of face {1,4} of the symmetric K=8 model: m = 5 x
    # 100 phases per level, q = 333 of them kept at levels >= 2.  The solve
    # holds a few q x q blocks at a time, and never a block of q x m
    # entries; a dense copy of the box's first three levels alone would
    # hold 12 m^2, 18 times q x m
    solve, boxes = induced_chains._stationary_of, []
    monkeypatch.setattr(induced_chains, "_stationary_of",
                        lambda *box, qbd=False: boxes.append(box) or solve(*box, qbd=qbd))
    chain = build_induced_chain(kernel_of(symmetric_limited_model(8)), {1, 4})
    assert solve_stationary(chain).converged
    m = boxes[-1][3] // 4
    tracemalloc.start()
    try:
        stats = solve(*boxes[-1], qbd=True)[3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    q = stats["phases"]
    assert (m, q) == (500, 333)
    assert peak <= 24 * q * m * 8
    assert peak <= 10 * q * q * 8


def _level_independent_qbd(m, r, seed, excess=None, slowest=1.0):
    """Canonical triplets of a four-level box (level 3 reflecting) of a
    QBD with m phases: random boundary blocks at levels 0 and 1, and
    from level 2 on up, local and down blocks whose down moves enter r
    phases and outweigh the up moves on every phase, by the factor 1 +
    `excess` when it is given.  At every level, the rates out of the m
    phases are then scaled by factors spaced evenly in log from `slowest`
    to 1."""
    rng = np.random.default_rng(seed)

    def rates(rows, cols, density):
        return rng.uniform(0.1, 1.0, (rows, cols)) * (rng.random((rows, cols)) < density)

    # a cycle through the phases at each level, an up move from every
    # phase to the same phase, and the same down move from level 1, make
    # the box irreducible
    local = [rates(m, m, 0.5) + np.roll(np.eye(m), 1, axis=1) for _ in range(3)]
    up = [rates(m, m, 0.5) + np.eye(m) for _ in range(2)]
    U = (rates(m, m, 0.5) + np.eye(m)) / (2 * m)
    D = np.zeros((m, m))
    D[:, rng.choice(m, size=r, replace=False)] = rng.uniform(1.0, 2.0, (m, r)) / r
    if excess is not None:
        D *= ((1.0 + excess) * U.sum(axis=1) / D.sum(axis=1))[:, None]
    Q = np.zeros((4 * m, 4 * m))
    for k in range(4):
        block = slice(k * m, (k + 1) * m)
        Q[block, block] = local[min(k, 2)] + (U if k == 3 else 0.0)
        if k < 3:
            Q[block, block.start + m:block.stop + m] = U if k == 2 else up[k]
        if k > 0:
            Q[block, block.start - m:block.stop - m] = D if k > 1 else rates(m, m, 0.5) + np.eye(m)
    np.fill_diagonal(Q, 0.0)
    Q *= np.tile(np.geomspace(slowest, 1.0, m), 4)[:, None]
    np.fill_diagonal(Q, -Q.sum(axis=1))
    rows, cols = np.nonzero(Q)
    return rows, cols, Q[rows, cols], 4 * m


@st.composite
def level_independent_qbds(draw):
    """`_level_independent_qbd` with m <= 12 phases."""
    m = draw(st.integers(min_value=1, max_value=12))
    r = draw(st.integers(min_value=1, max_value=m))
    return _level_independent_qbd(m, r, draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))


@settings(max_examples=40, deadline=None)
@given(level_independent_qbds())
# down moves 1% above the up moves, near null recurrence: 11 reduction
# steps where these seeds take 4 otherwise, and R's spectral radius at
# 0.99; down moves into every phase (c = q), and into one (c = 1).  These
# leave the c x c matrix I_c - Z_C of K^-1's Woodbury form well conditioned:
# det(K) = det(-Lp) det(I_c - Z_C), so it is ill-conditioned only when K is.
# So one more case makes -Lp itself ill-conditioned: phases whose rates
# span 1e-6..1, which give cond(-Lp) about 1e6 for the explicit (-Lp)^-1
@example(_level_independent_qbd(12, 6, seed=1, excess=0.01))
@example(_level_independent_qbd(12, 12, seed=2, excess=0.01))
@example(_level_independent_qbd(12, 1, seed=3, excess=0.01))
@example(_level_independent_qbd(12, 6, seed=4, slowest=1e-6))
def test_structured_qbd_solve_matches_the_dense_reference(qbd):
    rows, cols, data, n = qbd
    stats = _assert_matches_reference_qbd(induced_chains._stationary_of(*qbd, qbd=True), *qbd)
    down = (rows >= 3 * n // 4) & (cols < 3 * n // 4)
    assert stats["phases"] == n // 4
    assert stats["downPhases"] == np.unique(cols[down]).size


def test_off_subset_drift_vanishes(np_model):
    table = drift_table(np_model, mode="numeric")
    for A in CANONICAL_SUBSETS:
        e = table.numeric[A]
        assert e.diagnostics["offSubsetDriftMax"] <= 1e-5


def test_exponential_disciplines_share_numeric_drifts(monkeypatch):
    # with exponential services the preemption rule cannot matter in any
    # saturated stationary regime; force equal truncation and compare
    monkeypatch.setattr(induced_chains, "START_LEVEL", 32)
    monkeypatch.setattr(induced_chains, "LEVEL_CAP", 64)
    t_np = drift_table(exp_model("non_preemptive"), mode="numeric")
    t_pr = drift_table(exp_model("preemptive_resume"), mode="numeric")
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


@pytest.mark.parametrize("K", [10, 100, 10**3, 10**6])
def test_limited_closed_form_is_within_mu1_over_k_of_priority(K):
    # the closed-form half of the large-K limit oracle: non-preemptive
    # priority is limited service with no visit budget, and with matched
    # stations every entry of the five faces is within mu1/K of it
    rng = np.random.default_rng(4)
    for _ in range(200):
        lam = rng.uniform(0.05, 2.0)
        mu2 = rng.uniform(0.1, 5.0)
        mu1 = mu2 * rng.uniform(1.01, 10.0)
        mu = (mu1, mu2, mu1, mu2)
        lim = induced_chains._closed_rates(lam, lam, 0.0, mu, K)
        prio = induced_chains._closed_rates(lam, lam, 0.0, mu)
        assert lim.keys() == prio.keys() == set(CANONICAL_SUBSETS)
        for A in CANONICAL_SUBSETS:
            gap = np.max(np.abs(np.subtract(lim[A], prio[A])))
            assert gap <= mu1 / K, (K, mu, A)


def test_closed_form_guards():
    # nominal overload
    with pytest.raises(AssumptionViolated, match="nominal condition fails"):
        closed_form_table(exp_model(lam1=1.2, mus=(4.0, 1.0, 4.2, 2.2)))
    # an asymmetric limited model whose face 134 is unstable: queue 2's
    # input a1 = 1/D1 is above its rate b2 = K/D2 when saturated
    with pytest.raises(AssumptionViolated, match="face 134 is not stable"):
        closed_form_table(exp_model("limited", K=2, lam1=0.5, lam3=0.5, p=0.0,
                                    mus=(8.0, 1.5, 4.0, 6.0)))
    # K = 1 with matched stations sits on face 123's boundary a2 = b1
    with pytest.raises(AssumptionViolated, match="face 123 is not stable"):
        closed_form_table(
            exp_model("limited", K=1, lam1=1.0, lam3=1.0, p=0.0,
                      mus=(5.0, 1.8, 5.0, 1.8)))


# one model per face-stability condition, each passing the conditions
# checked before it: the (1,K)-limited discipline with these (K, lam1,
# lam3, p, mus)
FACE_REFUSALS = {
    "123": (1, 0.2, 0.2, 0.0, (1.0, 4.0, 4.0, 1.0)),
    "134": (1, 0.2, 0.2, 0.0, (4.0, 1.0, 1.0, 4.0)),
    "14": (3, 0.2, 1.4, 1.0, (7.2, 2.5, 5.7, 7.2)),
    "23": (3, 1.4, 1.6, 0.0, (3.5, 8.8, 7.8, 3.4)),
}


@pytest.mark.parametrize("face", sorted(FACE_REFUSALS))
def test_each_unstable_face_refuses_the_closed_form_by_name(face):
    K, lam1, lam3, p, mus = FACE_REFUSALS[face]
    model = exp_model("limited", K=K, lam1=lam1, lam3=lam3, p=p, mus=mus)
    assert nominal_condition(model)[1]
    with pytest.raises(AssumptionViolated, match=f"^face {face} is not stable: "):
        closed_form_table(model)
    # the numeric solve refuses the same face, by its QBD's mean drift
    sol = solve_stationary(build_induced_chain(kernel_of(model), {int(q) for q in face}))
    assert not sol.converged and "mean drift condition fails" in sol.note


def face_loads(model):
    """The four face-stability ratios `closed_form_table` requires below
    one: faces 123, 134, 14 and 23."""
    lam1, lam3 = model.arrival_rates
    mu, p = model.service_rates, model.p
    K = model.K if model.discipline == "limited" else None
    a1, b2, a2, b1 = induced_chains._closed_rates(lam1, lam3, p, mu, K)[SUBSET_ALL]
    return (a2 / b1, a1 / b2, a1 / mu[1] + (lam3 + p * a1) / mu[2],
            lam1 / mu[0] + a2 / mu[3])


@st.composite
def builtin_models(draw):
    """Built-in models with Poisson or MMPP class-1 arrivals, exponential,
    Erlang-2 or hyperexponential services (means set by class loads in
    [0.05, 0.3], so each station's nominal load is at most 0.6), p <= 0.5,
    and (1,K)-limited service with 2 <= K <= 8 or either priority
    discipline.  S0 is at most 64: above it a 2-D face's QBD can run out
    of its state budget before its boundary mass falls to TAIL_TOL (seen
    at S0 = 81), so a larger K takes smaller service processes.  Every
    face-stability ratio is at most 0.6."""
    unit = st.floats(min_value=0.0, max_value=1.0)
    lam1, lam3, p = 0.2 + 0.8 * draw(unit), 0.2 + 0.8 * draw(unit), 0.5 * draw(unit)
    mmpp = draw(st.sampled_from([True, False]))
    dims = {"exponential": 1, "erlang": 2, "hyperexponential": 2}
    k1, k3 = draw(st.sampled_from(list(dims))), draw(st.sampled_from(list(dims)))

    def S0(K, k2="exponential", k4="exponential"):
        return (1 + mmpp) * (1 + dims[k1] + (K or 1) * dims[k4]) \
            * (1 + dims[k3] + (K or 1) * dims[k2])

    K = draw(st.sampled_from([K for K in range(2, 9) if S0(K) <= 64] + [None]))
    k4 = draw(st.sampled_from([k for k in dims if S0(K, k4=k) <= 64]))
    k2 = draw(st.sampled_from([k for k in dims if S0(K, k2=k, k4=k4) <= 64]))
    phs = []
    for kind, lam in zip((k1, k2, k3, k4), (lam1, lam1, p * lam1 + lam3, p * lam1 + lam3)):
        rate = lam / (0.05 + 0.25 * draw(unit))
        phs.append(exponential_ph(rate) if kind == "exponential" else
                   erlang_ph(2, 2.0 * rate) if kind == "erlang" else
                   hyperexponential_ph([0.4, 0.6], [2.0 * rate, 0.75 * rate]))
    map1 = mmpp_map([[-1.0, 1.0], [1.0, -1.0]], [0.5 * lam1, 1.5 * lam1]) if mmpp \
        else poisson_map(lam1)
    discipline = "limited" if K else draw(st.sampled_from(["non_preemptive",
                                                           "preemptive_resume"]))
    model = build_network(map1, poisson_map(lam3), *phs, p, discipline, K)
    assume(kernel_of(model).S0 <= 64 and max(face_loads(model)) <= 0.6)
    return model


@settings(max_examples=12, deadline=20_000, derandomize=True)
@given(builtin_models())
# MMPP arrivals, Erlang-2 and hyperexponential services and feedback at
# once (S0 = 50)
@example(build_network(mmpp_map([[-1.0, 1.0], [1.0, -1.0]], [0.7, 1.3]), poisson_map(0.5),
                       erlang_ph(2, 10.0), exponential_ph(1.8),
                       hyperexponential_ph([0.4, 0.6], [10.0, 3.75]), exponential_ph(1.8),
                       0.3, "limited", 2))
def test_numeric_faces_match_the_closed_form(model):
    # every drift of every face within 1e-6 of the closed form, relative
    # to the larger of the queue's rates; derandomized so that each run
    # checks the same models (the gap is up to 0.8 * the face's boundary
    # mass, which may reach TAIL_TOL = 1e-6)
    closed, numeric = closed_form_table(model), numeric_table(model)
    for A in CANONICAL_SUBSETS:
        c, n = closed[A], numeric[A]
        assert n.drifts is not None, (subset_name(A), n.diagnostics)
        scale = np.maximum(np.abs(c.drifts), np.maximum(c.input_rates, c.output_rates))
        np.testing.assert_array_less(np.abs(n.drifts - c.drifts), 1e-6 * scale + 1e-15,
                                     err_msg=subset_name(A))


S14, S23 = frozenset({1, 4}), frozenset({2, 3})


def _direct_drifts(model, A):
    """Face A's drifts from its own induced-chain solve, None when it did
    not converge."""
    chain = build_induced_chain(kernel_of(model), A)
    sol = solve_stationary(chain)
    if not sol.converged:
        return None
    mu = output_rates(chain, sol)
    return input_rates(model, mu) - mu


@settings(max_examples=30, deadline=None, derandomize=True)
@given(builtin_models(), st.sampled_from(["built-in", "custom", "coupled"]))
# frozen phases: face N keeps one of two closed classes
@example(FROZEN_PHASE_MODEL, "built-in")
@example(FROZEN_PHASE_MODEL, "custom")
@example(FROZEN_PHASE_MODEL, "coupled")
def test_decomposed_faces_match_their_own_solves(model, form):
    # faces 14 and 23 read off face N and their 1-D sub-faces agree with
    # their 2-D solves within 1e-6 of the queue's rates (the solve's
    # boundary mass may reach TAIL_TOL), and every face with the closed
    # form within 1e-12; stations that fail the guard keep the 2-D solve
    if form != "built-in":
        model = as_custom(model, coupled=form == "coupled")
    numeric = numeric_table(model)
    for A in (S14, S23):
        entry = numeric[A]
        diag = entry.diagnostics
        if form == "coupled":
            assert "decomposed" not in diag and "not decomposed: station" in diag["note"]
            continue
        assert "decomposed" in diag and diag["history"] == [], subset_name(A)
        direct = _direct_drifts(model, A)
        assert (entry.drifts is None) == (direct is None), (subset_name(A), diag)
        if direct is not None:
            scale = np.maximum(np.abs(direct), np.maximum(entry.input_rates,
                                                          entry.output_rates))
            np.testing.assert_array_less(np.abs(entry.drifts - direct), 1e-6 * scale + 1e-15,
                                         err_msg=subset_name(A))
    if form == "built-in":
        closed = closed_form_table(model)
        for A in CANONICAL_SUBSETS:
            c, n = closed[A], numeric[A]
            scale = np.maximum(np.abs(c.drifts), np.maximum(c.input_rates, c.output_rates))
            assert np.all(np.abs(n.drifts - c.drifts) <= 1e-12 * scale), subset_name(A)


def test_one_d_faces_balance_their_free_queue():
    # the free queue of a converged 1-D face leaves at its input, and
    # offSubsetDriftMax keeps the solve's own imbalance
    model = symmetric_limited_model(3)
    for A, free in ((frozenset({1, 2, 3}), 4), (frozenset({1, 3, 4}), 2)):
        entry = numeric_entry(model, A)
        chain = build_induced_chain(kernel_of(model), A)
        mu = output_rates(chain, solve_stationary(chain))
        leak = abs(input_rates(model, mu)[free - 1] - mu[free - 1])
        assert entry.drifts[free - 1] == 0.0
        assert entry.output_rates[free - 1] == entry.input_rates[free - 1]
        assert entry.diagnostics["offSubsetDriftMax"] == leak


def test_a_face_that_found_the_state_budget_reads_its_drift_off_its_sub_faces():
    # (1,7)-limited, S0 = 81: face 14's free station carries load 0.92, and
    # as a QBD its fast axis ran out of the state budget at boundary mass
    # 1.9e-4, so it had no numeric drift
    model = exp_model("limited", K=7, lam1=0.4, lam3=0.89, p=0.0,
                      mus=(4.57, 1.13, 7.56, 7.91))
    table = drift_table(model, mode="both")
    assert table.cross_check["ok"], table.cross_check
    diag = table.numeric[S14].diagnostics
    assert table.numeric[S14].drifts is not None and diag["history"] == []
    assert diag["decomposed"]["subFaceDrifts"].keys() == {"134"}


# the reading that fails on each FACE_REFUSALS model of a 2-D face
REFUSING_READINGS = {"14": "queue 3's drift on face 134", "23": "queue 1's drift on face 123"}


@pytest.mark.parametrize("face", sorted(REFUSING_READINGS))
def test_decomposed_faces_refuse_the_unstable_face_by_its_reading(face):
    K, lam1, lam3, p, mus = FACE_REFUSALS[face]
    model = exp_model("limited", K=K, lam1=lam1, lam3=lam3, p=p, mus=mus)
    entry = numeric_entry(model, {int(q) for q in face})
    diag = entry.diagnostics
    assert entry.drifts is None and not diag["converged"] and diag["history"] == []
    sub = REFUSING_READINGS[face][-3:]
    value = diag["decomposed"]["subFaceDrifts"][sub]
    assert value > 0.0
    assert diag["note"] == (f"decomposed face not stable: {REFUSING_READINGS[face]} is "
                            f"{value:.6g}, not below -1e-09")


def test_stations_that_do_not_run_alone_keep_the_2d_solve():
    # a custom u["+*+"] that is not the identity keeps faces 14 and 23 on
    # their own solves, whether face N keeps one closed class or two
    for model in (as_custom(exp_model(), coupled=True),
                  as_custom(FROZEN_PHASE_MODEL, coupled=True)):
        for A, station in ((S14, 1), (S23, 2)):
            diag = numeric_entry(model, A).diagnostics
            assert diag["history"] and "decomposed" not in diag, diag
            assert diag["note"].endswith(f'solved in 2-D, not decomposed: station {station}\'s '
                                         'u["+*+"] or u["++*"] is not the identity')


def test_table_rejects_unknown_subset(np_model):
    table = drift_table(np_model, mode="closed")
    with pytest.raises(UnsupportedSubset):
        table.entry({1, 2})


def test_drift_table_rejects_an_unknown_mode(np_model):
    with pytest.raises(ValueError, match="unknown drift table mode 'x'"):
        drift_table(np_model, mode="x")


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
    table = drift_table(model, mode="both")
    assert table.lam1 == pytest.approx(0.8, abs=1e-12)
    cross = table.cross_check
    assert cross["ok"], cross
    assert cross["worst"] <= 1e-4
    for A in CANONICAL_SUBSETS:
        assert table.numeric[A].diagnostics["offSubsetDriftMax"] <= 1e-5


def test_numeric_table_reports_unstable_subset_without_drifts(monkeypatch):
    # lam1 > mu1 makes the {2,3} chain itself transient; the entry must
    # carry no drift vector and downstream access must fail loudly
    model = exp_model(lam1=5.0, mus=(4.0, 2.4, 4.2, 2.2))
    monkeypatch.setattr(induced_chains, "LEVEL_CAP", 8)
    entries = numeric_table(model)
    e = entries[frozenset({2, 3})]
    assert e.drifts is None
    assert not e.diagnostics["converged"]
