import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdrift import (
    erlang_ph,
    exponential_ph,
    hyperexponential_ph,
    map_arrival_rate,
    map_stationary_phase,
    mmpp_map,
    ph_mean,
    poisson_map,
    validate_map,
    validate_ph,
)
from netdrift.errors import (
    BetaSumNotOne,
    DimensionMismatch,
    InvalidSubgenerator,
    NegativeProbability,
    NegativeRate,
    ReducibleGenerator,
    RowSumNonzero,
    SingularH,
)


# --- MAP validation and stationary phase -----------------------------------

def test_poisson_map_single_phase():
    m = poisson_map(2.0)
    assert m.dim == 1
    assert np.array_equal(m.C, [[-2.0]])
    assert np.array_equal(m.D, [[2.0]])
    assert np.allclose(map_stationary_phase(m), [1.0])
    assert map_arrival_rate(m) == pytest.approx(2.0, abs=1e-12)


def test_two_phase_map_stationary_and_rate():
    # pi solves pi(C+D) = 0 with C+D = [[-1,1],[2,-2]]: pi = (2/3, 1/3)
    m = validate_map([[-3.0, 1.0], [2.0, -4.0]], [[2.0, 0.0], [0.0, 2.0]])
    pi = map_stationary_phase(m)
    assert np.allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert map_arrival_rate(m) == pytest.approx(2.0, abs=1e-12)


def test_symmetric_switch_stationary_is_uniform():
    m = validate_map([[-3.0, 1.0], [1.0, -3.0]], [[2.0, 0.0], [0.0, 2.0]])
    assert np.allclose(map_stationary_phase(m), [0.5, 0.5], atol=1e-12)


def test_zero_d_matrix_has_zero_rate():
    m = validate_map([[-1.0, 1.0], [2.0, -2.0]], [[0.0, 0.0], [0.0, 0.0]])
    assert map_arrival_rate(m) == pytest.approx(0.0, abs=1e-14)
    assert map_arrival_rate(poisson_map(0.0)) == 0.0


def test_mmpp_builder_splits_rates():
    m = mmpp_map([[-1.0, 1.0], [2.0, -2.0]], [3.0, 0.5])
    assert np.allclose(m.C, [[-4.0, 1.0], [2.0, -2.5]])
    assert np.allclose(m.D, np.diag([3.0, 0.5]))
    # pi = (2/3, 1/3) again, so lambda = 2/3*3 + 1/3*0.5
    assert map_arrival_rate(m) == pytest.approx(2.0 + 0.5 / 3.0, rel=1e-12)


def test_map_rejects_negative_off_diagonal():
    with pytest.raises(NegativeRate):
        validate_map([[-1.0, -0.1], [1.0, -1.0]], [[1.1, 0.0], [0.0, 0.0]])


def test_map_rejects_negative_d():
    with pytest.raises(NegativeRate):
        validate_map([[-1.0, 2.0], [1.0, -1.0]], [[0.0, -1.0], [0.0, 0.0]])


def test_map_rejects_nonzero_row_sum():
    with pytest.raises(RowSumNonzero):
        validate_map([[-1.0, 0.9], [1.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]])


def test_map_rejects_reducible_pair():
    with pytest.raises(ReducibleGenerator):
        validate_map([[-1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]])


def _map_on_graph(rng, adj):
    """A MAP whose rate graph is adj: each edge's rate goes to C or D at
    random, self-loops to D, and C's diagonal closes the rows."""
    rates = adj * rng.uniform(0.5, 2.0, adj.shape)
    in_d = rng.random(adj.shape) < 0.5
    np.fill_diagonal(in_d, True)
    C = np.where(in_d, 0.0, rates)
    D = np.where(in_d, rates, 0.0)
    np.fill_diagonal(C, -rates.sum(axis=1))
    return C, D


def test_map_irreducibility_matches_csgraph():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(20261018)
    graphs = []
    for m in range(1, 9):
        graphs.append(np.eye(m, dtype=bool))  # self-loops only
        graphs.append(np.eye(m, k=1, dtype=bool))  # one-way chain
        graphs.append(np.eye(m, k=1, dtype=bool) | np.eye(m, k=1 - m, dtype=bool))
        for density in (0.15, 0.3, 0.5, 0.7):
            graphs.extend(rng.random((m, m)) < density for _ in range(10))
    verdicts = []
    for adj in graphs:
        ref = adj.copy()
        np.fill_diagonal(ref, False)
        ncomp, _ = connected_components(csr_matrix(ref), directed=True,
                                        connection="strong")
        C, D = _map_on_graph(rng, adj)
        try:
            validate_map(C, D)
            irreducible = True
        except ReducibleGenerator:
            irreducible = False
        assert irreducible == (ncomp == 1), adj.astype(int)
        verdicts.append(irreducible)
    assert len(verdicts) == 344
    assert 50 < sum(verdicts) < 294


def test_map_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_map([[-1.0]], [[0.5, 0.5], [0.5, 0.5]])


# --- PH validation and moments ----------------------------------------------

def test_exponential_ph_mean_and_rate():
    ph = validate_ph([1.0], [[-3.0]])
    assert ph.dim == 1
    assert np.array_equal(ph.h, [3.0])
    assert ph_mean(ph) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_erlang_two_mean():
    ph = erlang_ph(2, 4.0)
    assert ph.dim == 2
    assert np.array_equal(ph.beta, [1.0, 0.0])
    assert np.allclose(ph.H, [[-4.0, 4.0], [0.0, -4.0]])
    assert ph_mean(ph) == pytest.approx(0.5, rel=1e-14)


def test_hyperexponential_mean():
    ph = hyperexponential_ph([0.4, 0.6], [1.0, 5.0])
    assert ph_mean(ph) == pytest.approx(0.52, rel=1e-14)


def test_ph_rejects_beta_sum():
    with pytest.raises(BetaSumNotOne):
        validate_ph([0.5, 0.6], [[-1.0, 0.0], [0.0, -1.0]])


def test_ph_rejects_negative_beta():
    with pytest.raises(NegativeProbability):
        validate_ph([1.2, -0.2], [[-1.0, 0.0], [0.0, -1.0]])


def test_ph_rejects_bad_subgenerator():
    with pytest.raises(InvalidSubgenerator):
        validate_ph([1.0, 0.0], [[-1.0, -0.5], [0.0, -1.0]])
    with pytest.raises(InvalidSubgenerator):
        validate_ph([1.0, 0.0], [[0.5, 0.0], [0.0, -1.0]])
    with pytest.raises(InvalidSubgenerator):
        # row sums to +1: exit rate would be negative
        validate_ph([1.0, 0.0], [[-1.0, 2.0], [0.0, -1.0]])


def test_ph_rejects_singular_h():
    with pytest.raises(SingularH):
        validate_ph([0.5, 0.5], [[-1.0, 1.0], [0.0, 0.0]])


def test_ph_validity_does_not_depend_on_the_time_unit():
    # det(H) = (-rate)^200 underflows to 0 at rate 0.01, yet H is as well
    # conditioned as at rate 1: only the condition number marks H singular
    for rate in (1e3, 1.0, 1e-2):
        assert ph_mean(erlang_ph(200, rate)) == pytest.approx(200 / rate, rel=1e-12)


def test_ph_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_ph([0.5, 0.5], [[-1.0]])


def test_erlang_rejects_fractional_phases():
    with pytest.raises(DimensionMismatch):
        erlang_ph(2.5, 1.0)


@pytest.mark.parametrize("phases", [float("nan"), float("inf"), -float("inf"), 0, -2,
                                    "x", "2", None, [], {}, [2], True, False],
                         ids=repr)
def test_erlang_rejects_a_phase_count_that_is_not_a_positive_integer(phases):
    # JSON NaN, Infinity, null, strings, lists and objects reach erlang_ph
    # as they are; a bool is not a count
    with pytest.raises(DimensionMismatch, match="phase count must be a positive integer"):
        erlang_ph(phases, 1.0)


@pytest.mark.parametrize("phases", [2, 2.0, np.int64(2), np.float64(2.0)], ids=repr)
def test_erlang_accepts_an_integral_phase_count(phases):
    ph = erlang_ph(phases, 4.0)
    assert ph.dim == 2 and ph_mean(ph) == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), None])
def test_ph_rejects_a_non_finite_beta(bad):
    # a NaN slips past every comparison of the sign and sum checks
    with pytest.raises(BetaSumNotOne, match="non-finite"):
        validate_ph([bad, 1.0], [[-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(BetaSumNotOne, match="non-finite"):
        hyperexponential_ph([bad, 0.5], [1.0, 2.0])


# --- property tests ----------------------------------------------------------

def _random_map(rng, dim):
    C = rng.uniform(0.0, 1.0, (dim, dim))
    D = rng.uniform(0.0, 1.0, (dim, dim))
    # ring in C guarantees irreducibility of C + D
    for i in range(dim):
        C[i, (i + 1) % dim] += 1.0
    np.fill_diagonal(C, 0.0)
    np.fill_diagonal(C, -(C.sum(axis=1) + D.sum(axis=1)))
    return C, D


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_map_stationary_invariants(dim, seed):
    rng = np.random.default_rng(seed)
    C, D = _random_map(rng, dim)
    m = validate_map(C, D)
    pi = map_stationary_phase(m)
    assert np.max(np.abs(pi @ (m.C + m.D))) <= 1e-10
    assert abs(pi.sum() - 1.0) <= 1e-12
    assert pi.min() >= 0.0


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_arrival_rate_invariant_under_phase_permutation(dim, seed):
    rng = np.random.default_rng(seed)
    C, D = _random_map(rng, dim)
    perm = rng.permutation(dim)
    P = np.eye(dim)[perm]
    rate = map_arrival_rate(validate_map(C, D))
    rate_p = map_arrival_rate(validate_map(P @ C @ P.T, P @ D @ P.T))
    assert rate_p == pytest.approx(rate, rel=1e-10)


def _random_ph(rng, dim):
    H = rng.uniform(0.0, 1.0, (dim, dim))
    np.fill_diagonal(H, 0.0)
    exits = rng.uniform(0.1, 2.0, dim)
    np.fill_diagonal(H, -(H.sum(axis=1) + exits))
    beta = rng.uniform(0.05, 1.0, dim)
    beta /= beta.sum()
    return beta, H


@given(st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.05, max_value=50.0),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_ph_mean_scales_inversely_with_rates(dim, c, seed):
    rng = np.random.default_rng(seed)
    beta, H = _random_ph(rng, dim)
    base = ph_mean(validate_ph(beta, H))
    scaled = ph_mean(validate_ph(beta, c * H))
    assert scaled == pytest.approx(base / c, rel=1e-9)


def test_ph_mean_matches_absorption_simulation():
    # Monte-Carlo oracle: simulate the absorbing chain directly
    ph = validate_ph([0.3, 0.5, 0.2],
                     [[-4.0, 1.0, 0.5], [0.2, -2.0, 0.3], [0.0, 1.0, -3.0]])
    rng = np.random.default_rng(20260814)
    n = 100_000
    exit_rates = ph.h
    total = -np.diag(ph.H)
    jump = ph.H - np.diag(np.diag(ph.H))
    times = np.zeros(n)
    for i in range(n):
        k = rng.choice(ph.dim, p=ph.beta)
        t = 0.0
        while True:
            t += rng.exponential(1.0 / total[k])
            if rng.random() < exit_rates[k] / total[k]:
                break
            probs = jump[k] / (total[k] - exit_rates[k])
            k = rng.choice(ph.dim, p=probs)
        times[i] = t
    se = times.std(ddof=1) / np.sqrt(n)
    assert abs(times.mean() - ph_mean(ph)) <= 3.0 * se
