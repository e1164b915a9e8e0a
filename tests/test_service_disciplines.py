import hashlib

import numpy as np
import pytest

from netdrift import (
    MSPSpec,
    build_limited_msp,
    build_network,
    build_nonpreemptive_msp,
    build_preemptive_resume_msp,
    erlang_ph,
    exponential_ph,
    hyperexponential_ph,
    map_arrival_rate,
    mmpp_map,
    ph_mean,
    poisson_map,
    validate_msp,
)
from netdrift.errors import (
    GeneratorRowSumNonzero,
    InvalidK,
    NegativeOffDiagonal,
    NegativeProbability,
    NegativeRate,
    NonStochasticU,
)
from netdrift.service_disciplines import COMPOSITES, T_KEYS, U_KEYS


def _copy_spec(spec):
    return MSPSpec(spec.n, spec.s_lo, spec.s_hi,
                   {k: v.copy() for k, v in spec.t.items()},
                   {k: v.copy() for k, v in spec.u.items()}, spec.kind)


BUILDERS = (
    ("nonpreemptive", lambda lo, hi: build_nonpreemptive_msp(lo, hi)),
    ("preemptive", lambda lo, hi: build_preemptive_resume_msp(lo, hi)),
    ("limited2", lambda lo, hi: build_limited_msp(lo, hi, 2)),
)

PH_PAIRS = (
    (exponential_ph(4.0), exponential_ph(2.2)),
    (erlang_ph(2, 8.0), exponential_ph(2.2)),
    (hyperexponential_ph([0.4, 0.6], [1.0, 5.0]), erlang_ph(2, 5.0)),
)


# --- non-preemptive block layout ---------------------------------------------

def test_nonpreemptive_exponential_blocks():
    mu1, mu4 = 4.0, 2.2
    spec = build_nonpreemptive_msp(exponential_ph(mu1), exponential_ph(mu4))
    assert spec.n == 3
    assert np.allclose(spec.t["+0"],
                       [[-1.0, 1.0, 0.0], [0.0, -mu1, 0.0], [0.0, 1.0, -1.0]])
    assert np.allclose(spec.t["1*0"],
                       [[0.0, 0.0, 0.0], [mu1, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(spec.t["2*0"],
                       [[0.0, 0.0, 0.0], [0.0, mu1, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(spec.t["0+"],
                       [[-1.0, 0.0, 1.0], [0.0, -1.0, 1.0], [0.0, 0.0, -mu4]])
    assert np.allclose(spec.t["++"],
                       [[-1.0, 0.0, 1.0], [0.0, -mu1, 0.0], [0.0, 0.0, -mu4]])
    # completions during contention hand the server to the priority class
    assert np.allclose(spec.t["1*+"],
                       [[0.0, 0.0, 0.0], [0.0, 0.0, mu1], [0.0, 0.0, 0.0]])
    assert np.allclose(spec.t["+1*"],
                       [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, mu4, 0.0]])


def test_nonpreemptive_erlang_dimension():
    spec = build_nonpreemptive_msp(erlang_ph(2, 8.0), exponential_ph(2.2))
    assert spec.n == 1 + 2 + 1
    validate_msp(spec)


def test_nonpreemptive_arrival_updates_are_identity_when_busy():
    for lo, hi in PH_PAIRS:
        spec = build_nonpreemptive_msp(lo, hi)
        for key in ("+*0", "+0*", "0*+", "0+*", "+*+", "++*"):
            assert np.array_equal(spec.u[key], np.eye(spec.n)), key


# --- preemptive-resume -------------------------------------------------------

def test_preemptive_dimension_formula():
    assert build_preemptive_resume_msp(
        exponential_ph(1.0), exponential_ph(1.0)).n == 3
    assert build_preemptive_resume_msp(
        erlang_ph(2, 8.0), exponential_ph(2.2)).n == 1 + 2 + 2 * 1
    assert build_preemptive_resume_msp(
        erlang_ph(2, 8.0), erlang_ph(3, 6.0)).n == 1 + 2 + 2 * 3


def test_preemptive_resumes_interrupted_phase():
    # with Erlang-2 low service, interrupting in phase k must return to k
    lo, hi = erlang_ph(2, 8.0), exponential_ph(2.2)
    spec = build_preemptive_resume_msp(lo, hi)
    # states: [idle, lo1, lo2, (lo1,hi1), (lo2,hi1)]
    # a high-priority completion while low phase k was interrupted moves
    # (lok, hi1) -> lok
    done = spec.t["+1*"]
    assert done[3, 1] == pytest.approx(2.2)
    assert done[4, 2] == pytest.approx(2.2)
    assert done[3, 2] == 0.0 and done[4, 1] == 0.0


# --- (1,K)-limited -----------------------------------------------------------

def test_limited_dimension_formula():
    assert build_limited_msp(exponential_ph(1.0), exponential_ph(1.0), 1).n == 3
    assert build_limited_msp(exponential_ph(1.0), exponential_ph(1.0), 3).n == 5
    assert build_limited_msp(erlang_ph(2, 1.0), exponential_ph(1.0), 3).n == 1 + 2 + 3


def test_limited_rejects_bad_k():
    with pytest.raises(InvalidK):
        build_limited_msp(exponential_ph(1.0), exponential_ph(1.0), 0)


def test_limited_batch_slots_advance_and_wrap():
    mu1, mu4 = 4.0, 2.2
    spec = build_limited_msp(exponential_ph(mu1), exponential_ph(mu4), 3)
    # states: [idle, single, slot1, slot2, slot3]
    adv = spec.t["+2*"]
    assert adv[2, 3] == pytest.approx(mu4)
    assert adv[3, 4] == pytest.approx(mu4)
    # slot K wraps back to the single-service class
    assert adv[4, 1] == pytest.approx(mu4)
    # completing the single service starts the batch class when present
    assert spec.t["2*+"][1, 2] == pytest.approx(mu1)


# --- composite generator invariants -------------------------------------------

@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("pair", range(len(PH_PAIRS)))
def test_composites_are_generators(name, builder, pair):
    lo, hi = PH_PAIRS[pair]
    spec = builder(lo, hi)
    assert np.max(np.abs(spec.t["00"].sum(axis=1))) <= 1e-12
    for base, completions in COMPOSITES:
        comp = spec.t[base] + sum(spec.t[k] for k in completions)
        assert np.max(np.abs(comp.sum(axis=1))) <= 1e-12, (name, base, completions)


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("pair", range(len(PH_PAIRS)))
def test_u_matrices_are_stochastic(name, builder, pair):
    lo, hi = PH_PAIRS[pair]
    spec = builder(lo, hi)
    for key in U_KEYS:
        U = spec.u[key]
        assert U.min() >= 0.0
        assert np.max(np.abs(U.sum(axis=1) - 1.0)) <= 1e-12, (name, key)


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_completion_matrices_nonnegative(name, builder):
    spec = builder(*PH_PAIRS[1])
    for key in T_KEYS:
        if "*" in key:
            assert spec.t[key].min() >= 0.0, key


def test_builder_output_passes_validation():
    for _, builder in BUILDERS:
        for lo, hi in PH_PAIRS:
            validate_msp(builder(lo, hi))


def test_validate_rejects_broken_row_sum():
    spec = _copy_spec(build_nonpreemptive_msp(*PH_PAIRS[0]))
    spec.t["++"][1, 0] += 0.1
    with pytest.raises(GeneratorRowSumNonzero):
        validate_msp(spec)


def test_validate_rejects_substochastic_u():
    spec = _copy_spec(build_nonpreemptive_msp(*PH_PAIRS[0]))
    spec.u["0*0"][0] *= 0.9
    with pytest.raises(NonStochasticU):
        validate_msp(spec)


def test_validate_rejects_negative_off_diagonal():
    spec = _copy_spec(build_nonpreemptive_msp(*PH_PAIRS[0]))
    spec.t["00"][1, 0] = -0.5
    spec.t["00"][1, 1] += 0.5
    with pytest.raises(NegativeOffDiagonal):
        validate_msp(spec)


@pytest.mark.parametrize("family,key", [("t", "1*+"), ("t", "00"), ("u", "++*")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_entries(family, key, bad):
    # a NaN fails no sign, row-sum or stochasticity comparison, so it is
    # caught before them
    spec = _copy_spec(build_nonpreemptive_msp(*PH_PAIRS[0]))
    getattr(spec, family)[key][1, 1] = bad
    with pytest.raises(NegativeRate, match="non-finite"):
        validate_msp(spec)


def test_builders_commute_with_phase_permutation():
    # swapping the two hyperexponential branches permutes the MSP states
    lo_a = hyperexponential_ph([0.4, 0.6], [1.0, 5.0])
    lo_b = hyperexponential_ph([0.6, 0.4], [5.0, 1.0])
    hi = exponential_ph(2.2)
    spec_a = build_nonpreemptive_msp(lo_a, hi)
    spec_b = build_nonpreemptive_msp(lo_b, hi)
    # state order [idle, lo1, lo2, hi]: swap the two low phases
    perm = np.eye(4)[[0, 2, 1, 3]]
    for key in T_KEYS:
        assert np.allclose(perm @ spec_a.t[key] @ perm.T, spec_b.t[key]), key
    for key in U_KEYS:
        assert np.allclose(perm @ spec_a.u[key] @ perm.T, spec_b.u[key]), key


# --- network assembly ----------------------------------------------------------

def test_build_network_wires_stations():
    phs = [exponential_ph(m) for m in (4.0, 2.4, 4.2, 2.2)]
    model = build_network(poisson_map(0.8), poisson_map(0.4), *phs, 0.3,
                          "non_preemptive")
    assert model.msp1.n == 3 and model.msp2.n == 3
    assert model.p == 0.3
    assert np.allclose(model.service_rates, (4.0, 2.4, 4.2, 2.2))
    # station 2 pairs class 3 (background) with class 2 (priority)
    assert model.msp2.t["+0"][1, 1] == pytest.approx(-4.2)
    assert model.msp2.t["0+"][2, 2] == pytest.approx(-2.4)


def test_network_rates_are_computed_once_and_exact():
    map1 = mmpp_map([[-1.0, 1.0], [2.0, -2.0]], [0.5, 1.3])
    map3 = poisson_map(0.4)
    phs = [erlang_ph(2, 8.0), hyperexponential_ph([0.4, 0.6], [6.0, 2.0]),
           exponential_ph(4.2), exponential_ph(2.2)]
    model = build_network(map1, map3, *phs, 0.3, "preemptive_resume")
    # the same tuples on every read, with the floats of the primitives
    assert model.arrival_rates is model.arrival_rates
    assert model.service_rates is model.service_rates
    assert model.arrival_rates == (map_arrival_rate(map1), map_arrival_rate(map3))
    assert model.service_rates == tuple(1.0 / ph_mean(ph) for ph in phs)


def test_build_network_rejects_bad_probability():
    phs = [exponential_ph(1.0)] * 4
    with pytest.raises(NegativeProbability):
        build_network(poisson_map(1.0), poisson_map(1.0), *phs, 1.5,
                      "non_preemptive")


# --- builders against a written-out reference ----------------------------------
#
# Reference builders that each write the whole [idle | background |
# other-class blocks] layout by hand; the builders on the shared layout
# must reproduce every matrix exactly.

def _reference_nonpreemptive(ph_lo, ph_hi):
    s1, s4 = ph_lo.dim, ph_hi.dim
    n = 1 + s1 + s4
    lo = slice(1, 1 + s1)
    hi = slice(1 + s1, n)
    b1, H1, h1 = ph_lo.beta, ph_lo.H, ph_lo.h
    b4, H4, h4 = ph_hi.beta, ph_hi.H, ph_hi.h
    I1, I4 = np.eye(s1), np.eye(s4)
    one1, one4 = np.ones(s1), np.ones(s4)

    t = {k: np.zeros((n, n)) for k in T_KEYS}
    u = {}

    # both queues empty: every busy phase is a placeholder draining to idle
    t["00"][lo, 0] = 1.0
    t["00"][lo, lo] = -I1
    t["00"][hi, 0] = 1.0
    t["00"][hi, hi] = -I4

    # background busy, other queue empty
    t["+0"][0, 0] = -1.0
    t["+0"][0, lo] = b1
    t["+0"][lo, lo] = H1
    t["+0"][hi, lo] = np.outer(one4, b1)
    t["+0"][hi, hi] = -I4
    t["1*0"][lo, 0] = h1
    t["2*0"][lo, lo] = np.outer(h1, b1)

    # background queue empty, other busy
    t["0+"][0, 0] = -1.0
    t["0+"][0, hi] = b4
    t["0+"][lo, lo] = -I1
    t["0+"][lo, hi] = np.outer(one1, b4)
    t["0+"][hi, hi] = H4
    t["01*"][hi, 0] = h4
    t["02*"][hi, hi] = np.outer(h4, b4)

    # both busy: an ongoing background service finishes, otherwise the
    # other class holds the server
    t["++"][0, 0] = -1.0
    t["++"][0, hi] = b4
    t["++"][lo, lo] = H1
    t["++"][hi, hi] = H4
    t["1*+"][lo, hi] = np.outer(h1, b4)
    t["2*+"][lo, hi] = np.outer(h1, b4)
    t["+1*"][hi, lo] = np.outer(h4, b1)
    t["+2*"][hi, hi] = np.outer(h4, b4)

    # arrival to an empty system starts service immediately
    u["0*0"] = np.zeros((n, n))
    u["0*0"][0, lo] = b1
    u["0*0"][lo, lo] = np.outer(one1, b1)
    u["0*0"][hi, lo] = np.outer(one4, b1)
    u["00*"] = np.zeros((n, n))
    u["00*"][0, hi] = b4
    u["00*"][lo, hi] = np.outer(one1, b4)
    u["00*"][hi, hi] = np.outer(one4, b4)
    for key in ("+*0", "+0*", "0*+", "0+*", "+*+", "++*"):
        u[key] = np.eye(n)

    return MSPSpec(n, s1, s4, t, u, "non_preemptive")


def _reference_preemptive_resume(ph_lo, ph_hi):
    s1, s4 = ph_lo.dim, ph_hi.dim
    n = 1 + s1 + s1 * s4
    lo = slice(1, 1 + s1)
    b1, H1, h1 = ph_lo.beta, ph_lo.H, ph_lo.h
    b4, H4, h4 = ph_hi.beta, ph_hi.H, ph_hi.h
    I1, I4 = np.eye(s1), np.eye(s4)
    one1, one4 = np.ones(s1), np.ones(s4)

    def blk(k):
        a = 1 + s1 + k * s4
        return slice(a, a + s4)

    t = {k: np.zeros((n, n)) for k in T_KEYS}
    u = {}

    t["00"][1:, 0] = 1.0
    t["00"][1:, 1:] = -np.eye(n - 1)

    t["+0"][0, 0] = -1.0
    t["+0"][0, lo] = b1
    t["+0"][lo, lo] = H1
    for k in range(s1):
        # placeholder interrupted blocks resume background phase k
        t["+0"][blk(k), 1 + k] = 1.0
        t["+0"][blk(k), blk(k)] = -I4
    t["1*0"][lo, 0] = h1
    t["2*0"][lo, lo] = np.outer(h1, b1)

    t["0+"][0, 0] = -1.0
    t["0+"][lo, lo] = -I1
    for k in range(s1):
        # with no background job present the frozen phase is drawn fresh
        t["0+"][0, blk(k)] = b1[k] * b4
        t["0+"][lo, blk(k)] = b1[k] * np.outer(one1, b4)
        t["0+"][blk(k), blk(k)] = H4
        t["01*"][blk(k), 0] = h4
        t["02*"][blk(k), blk(k)] = np.outer(h4, b4)

    t["++"][0, 0] = -1.0
    t["++"][lo, lo] = -I1
    for k in range(s1):
        t["++"][0, blk(k)] = b1[k] * b4
        t["++"][lo, blk(k)] = b1[k] * np.outer(one1, b4)
        t["++"][blk(k), blk(k)] = H4
        # background service cannot complete while interrupted
        t["+1*"][blk(k), 1 + k] = h4
        t["+2*"][blk(k), blk(k)] = np.outer(h4, b4)
    # t["1*+"] and t["2*+"] stay zero

    u["0*0"] = np.zeros((n, n))
    u["0*0"][0, lo] = b1
    u["0*0"][lo, lo] = np.outer(one1, b1)
    for k in range(s1):
        u["0*0"][blk(k), lo] = np.outer(one4, b1)

    u["00*"] = np.zeros((n, n))
    row = np.zeros(n)
    for k in range(s1):
        row[blk(k)] = b1[k] * b4
    u["00*"][:] = row

    # an other-class arrival during a background service interrupts it at
    # the current phase
    u["+0*"] = np.zeros((n, n))
    for k in range(s1):
        u["+0*"][0, blk(k)] = b1[k] * b4
        u["+0*"][1 + k, blk(k)] = b4
        u["+0*"][blk(k), blk(k)] = I4

    for key in ("+*0", "0*+", "0+*", "+*+", "++*"):
        u[key] = np.eye(n)

    return MSPSpec(n, s1, s4, t, u, "preemptive_resume")


def _reference_limited(ph_lo, ph_hi, K):
    s1, s4 = ph_lo.dim, ph_hi.dim
    n = 1 + s1 + K * s4
    lo = slice(1, 1 + s1)
    b1, H1, h1 = ph_lo.beta, ph_lo.H, ph_lo.h
    b4, H4, h4 = ph_hi.beta, ph_hi.H, ph_hi.h
    I1, I4 = np.eye(s1), np.eye(s4)
    one1, one4 = np.ones(s1), np.ones(s4)

    def slot(j):
        a = 1 + s1 + j * s4
        return slice(a, a + s4)

    t = {k: np.zeros((n, n)) for k in T_KEYS}
    u = {}

    t["00"][1:, 0] = 1.0
    t["00"][1:, 1:] = -np.eye(n - 1)

    t["+0"][0, 0] = -1.0
    t["+0"][0, lo] = b1
    t["+0"][lo, lo] = H1
    for j in range(K):
        t["+0"][slot(j), lo] = np.outer(one4, b1)
        t["+0"][slot(j), slot(j)] = -I4
    t["1*0"][lo, 0] = h1
    t["2*0"][lo, lo] = np.outer(h1, b1)

    t["0+"][0, 0] = -1.0
    t["0+"][0, slot(0)] = b4
    t["0+"][lo, lo] = -I1
    t["0+"][lo, slot(0)] = np.outer(one1, b4)
    for j in range(K):
        t["0+"][slot(j), slot(j)] = H4
        # last job of this class leaving: back to idle from any slot
        t["01*"][slot(j), 0] = h4
    for j in range(K - 1):
        t["02*"][slot(j), slot(j + 1)] = np.outer(h4, b4)
    # after the K-th service the (empty) background queue is visited and
    # skipped, so the cycle restarts at slot 1
    t["02*"][slot(K - 1), slot(0)] = np.outer(h4, b4)

    t["++"][0, 0] = -1.0
    t["++"][0, slot(0)] = b4
    t["++"][lo, lo] = H1
    for j in range(K):
        t["++"][slot(j), slot(j)] = H4
    t["1*+"][lo, slot(0)] = np.outer(h1, b4)
    t["2*+"][lo, slot(0)] = np.outer(h1, b4)
    for j in range(K):
        t["+1*"][slot(j), lo] = np.outer(h4, b1)
    for j in range(K - 1):
        t["+2*"][slot(j), slot(j + 1)] = np.outer(h4, b4)
    # visit budget exhausted: switch to the background class
    t["+2*"][slot(K - 1), lo] = np.outer(h4, b1)

    u["0*0"] = np.zeros((n, n))
    u["0*0"][0, lo] = b1
    u["0*0"][lo, lo] = np.outer(one1, b1)
    for j in range(K):
        u["0*0"][slot(j), lo] = np.outer(one4, b1)
    u["00*"] = np.zeros((n, n))
    u["00*"][:, slot(0)] = np.broadcast_to(b4, (n, s4))
    for key in ("+*0", "+0*", "0*+", "0+*", "+*+", "++*"):
        u[key] = np.eye(n)

    return MSPSpec(n, s1, s4, t, u, f"limited:{K}")


REFERENCE_CASES = (
    ("nonpreemptive", build_nonpreemptive_msp, _reference_nonpreemptive, ()),
    ("preemptive", build_preemptive_resume_msp, _reference_preemptive_resume, ()),
    ("limited1", build_limited_msp, _reference_limited, (1,)),
    ("limited2", build_limited_msp, _reference_limited, (2,)),
    ("limited3", build_limited_msp, _reference_limited, (3,)),
)


@pytest.mark.parametrize("name,build,reference,extra", REFERENCE_CASES,
                         ids=[case[0] for case in REFERENCE_CASES])
@pytest.mark.parametrize("pair", range(len(PH_PAIRS)))
def test_builders_match_reference(name, build, reference, extra, pair):
    lo, hi = PH_PAIRS[pair]
    got, want = build(lo, hi, *extra), reference(lo, hi, *extra)
    assert (got.n, got.s_lo, got.s_hi, got.kind) == (want.n, want.s_lo, want.s_hi, want.kind)
    for key in T_KEYS:
        assert np.array_equal(got.t[key], want.t[key]), (name, key)
    for key in U_KEYS:
        assert np.array_equal(got.u[key], want.u[key]), (name, key)


# --- non-preemptive priority as limited service with no visit budget ---------

@pytest.mark.parametrize("pair", range(len(PH_PAIRS)))
def test_nonpreemptive_is_one_limited_rule_away(pair):
    # one rule tells the two apart: after an other-class service with more
    # of that class waiting, priority keeps the server on that class and
    # the (1,1)-limited alternation switches to the background class
    lo, hi = PH_PAIRS[pair]
    prio, lim = build_nonpreemptive_msp(lo, hi), build_limited_msp(lo, hi, 1)
    assert (prio.n, prio.s_lo, prio.s_hi) == (lim.n, lim.s_lo, lim.s_hi)
    for key in T_KEYS:
        if key != "+2*":
            assert np.array_equal(prio.t[key], lim.t[key]), key
    for key in U_KEYS:
        assert np.array_equal(prio.u[key], lim.u[key]), key
    b1, b4, h4 = lo.beta, hi.beta, hi.h
    slot = slice(1 + lo.dim, prio.n)
    want_prio, want_lim = np.zeros((prio.n, prio.n)), np.zeros((prio.n, prio.n))
    want_prio[slot, slot] = np.outer(h4, b4)
    want_lim[slot, 1:1 + lo.dim] = np.outer(h4, b1)
    assert np.array_equal(prio.t["+2*"], want_prio)
    assert np.array_equal(lim.t["+2*"], want_lim)


# sha256 of the t matrices' bytes then the u matrices' bytes, in T_KEYS and
# U_KEYS order, per PH_PAIRS entry, as the builders gave them before the
# two alternating disciplines shared one builder: any moved byte fails
MSP_DIGESTS = {
    "nonpreemptive": (
        "b11703c85f15ac826ba03b89fdf4bd32c98faa0a7c8b3d7797bf1da49b1e8d1a",
        "11665e3628028662d39c4d9c4667aec587627a9bd414f6c47ca71ce43941fd64",
        "fc27c6b6c1d1e3143f404ba2eda7255db2dd03250be762c18b8a3a376b0ed400",
    ),
    "preemptive": (
        "4f04b15c631434e5c3f00479694837b7260bbe183b1e691396f7355f47dd62f6",
        "d5986c1530fc64036d4b3ab54970fa8687808f24203a88365ec0c4273fac372d",
        "fcaabe6766472de6ee6b5c5c8d54e9b9de558020fb5a6543e127b1b5351f4e64",
    ),
    "limited1": (
        "bf97cccb4129236d17de3405b9e480c22bda507b998b4ac7b95fa401bf57bebb",
        "2f4d0ae69350bf14079113bac6d38904fa15b9130f124a39f5ce509f25f7f75a",
        "3622c3f4d008263ca25d82493ad6151243feb82e068af02d6f81c9df2929809a",
    ),
    "limited2": (
        "f623739f7318e58a358e9c8ce00dc8cb7867c809352b808e2136ec8cbeaf57f2",
        "1bfbea5343cd8965c08899d3e3761b34fedc7c2166ef3b6e79695c84605696df",
        "be18f465565d542275349f7e6797c11ff8e54cec959cccd1e3d072805574bbd5",
    ),
    "limited3": (
        "0a4ca3dd160ad356e837b7c81a4a3837502fc9c39c0823a7cf6e3098ebbb1144",
        "8c8df6c5d6c9c00f0b338d9ff0122bd89773ac1f7f153af1e221d6f0a1059c8d",
        "6b25852ccec878748a7a223ca7fc6f508fa9fd87302b352920f83ddcbf586129",
    ),
    "limited4": (
        "29f82595d38a1089d3b63aed8aa7ed76b1f4cc8898b903e85122c4f0f959ac5f",
        "7d8191a17cff6b3b1190c13e9d319aa87eb23ffb47d0beb2a9e162b0365c6e37",
        "0752afe011b188789ad7f519986799a3f2d66b81ce0bb3452ba80d54654d617f",
    ),
    "limited5": (
        "f8b09eb439e08c77b43177389c09380f2bdf6a8ccd5ee9fc41b255db2d3ad41a",
        "b4d2db946a834168e9081462227629ceaefbc5a39e5c2df945759ad6d123776c",
        "e2cd09420794ab38194f40a89681790745d9c2e5998bde3f5c55e826c65bf5b1",
    ),
}


def _built(name, lo, hi):
    if name == "nonpreemptive":
        return build_nonpreemptive_msp(lo, hi)
    if name == "preemptive":
        return build_preemptive_resume_msp(lo, hi)
    return build_limited_msp(lo, hi, int(name[len("limited"):]))


@pytest.mark.parametrize("name", sorted(MSP_DIGESTS))
@pytest.mark.parametrize("pair", range(len(PH_PAIRS)))
def test_builders_are_byte_pinned(name, pair):
    spec = _built(name, *PH_PAIRS[pair])
    digest = hashlib.sha256()
    for key in T_KEYS:
        digest.update(spec.t[key].tobytes())
    for key in U_KEYS:
        digest.update(spec.u[key].tobytes())
    assert digest.hexdigest() == MSP_DIGESTS[name][pair]
