import hashlib
import itertools
from collections import deque
from functools import reduce

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import netdrift.generator as generator

from netdrift import (
    BlockKernel,
    build_induced_chain,
    build_network,
    check_semi_irreducible,
    classify,
    erlang_ph,
    exponential_ph,
    hyperexponential_ph,
    kernel_of,
    mmpp_map,
    poisson_map,
    regime_signature,
    validate_map,
)
from netdrift.generator import (
    CONFIRMED,
    DISPLACEMENTS,
    RATE_TOL,
    UNKNOWN,
    lattice_triplets,
)
from netdrift.service_disciplines import MSPSpec
from tests.conftest import (
    as_custom,
    dense,
    dense_block,
    exp_model,
    lattice_csr,
    symmetric_limited_model,
    triplets,
)
from tests.test_service_disciplines import PH_PAIRS

ALL_SIGS = list(itertools.product((0, 1, 2), repeat=4))


def phmap_model():
    """Priority model with MMPP class-1 arrivals, Erlang-2 class-1 and
    hyperexponential class-2 services."""
    return build_network(
        mmpp_map([[-1.0, 1.0], [1.0, -1.0]], [0.5, 1.1]),
        poisson_map(0.4),
        erlang_ph(2, 8.0),
        hyperexponential_ph([0.4, 0.6], [6.0, 2.0]),
        exponential_ph(4.2),
        exponential_ph(2.2),
        0.3,
    )


def _kronsum(mats):
    out = np.array([[0.0]])
    for m in mats:
        out = np.kron(out, np.eye(m.shape[0])) + np.kron(np.eye(out.shape[0]), m)
    return out


def _np_kron4(*mats):
    """The reference Kronecker product: numpy's own, factor by factor."""
    return reduce(np.kron, mats)


def _np_kronsum4(mats):
    """The reference Kronecker sum: I (x) m (x) I terms of `_np_kron4`,
    added in order."""
    dims = [m.shape[0] for m in mats]
    out = np.zeros((int(np.prod(dims)),) * 2)
    for i, m in enumerate(mats):
        left, right = int(np.prod(dims[:i])), int(np.prod(dims[i + 1:]))
        out += _np_kron4(np.eye(left), m, np.eye(right), np.eye(1))
    return out


# --- faces and signatures -----------------------------------------------------

@pytest.mark.parametrize("build", [exp_model, phmap_model, lambda: symmetric_limited_model(8)],
                         ids=["np", "phmap", "limited8"])
def test_move_edges_are_the_blocks_rates_computed_once(build, monkeypatch):
    # each shared block is built once, by the kernel's one refill, and its
    # edges are read off those triplets
    built = []
    real = generator._refill
    monkeypatch.setattr(generator, "_refill", lambda *a: built.append(real(*a)) or built[-1])
    kernel = BlockKernel(build())
    [(refilled, _)] = built
    read = set()
    for sig in ALL_SIGS:
        blocks, edges = kernel.q_blocks(sig), kernel.move_edges(sig)
        kernel.moves(sig)
        assert list(edges) == list(blocks), sig
        for z, B in blocks.items():
            assert any(B is b for b in refilled), (sig, z)
            read.add(id(B))
            B = dense(B, kernel.S0)
            on = B > RATE_TOL
            if not any(z):
                np.fill_diagonal(on, False)
            # the rates above RATE_TOL, by source, then target
            j, j2 = np.nonzero(on)
            assert np.array_equal(edges[z][0], j) and np.array_equal(edges[z][1], j2), (sig, z)
            assert edges[z][2].tobytes() == B[j, j2].tobytes(), (sig, z)
    # 68 distinct blocks, and the empty block 0 that no signature reads
    assert len(read) == 68 and len(refilled) == len({id(b) for b in refilled}) == 69


def _table_moves(kernel, sig, j):
    """The moves out of background state j in the kernel's move table for
    regime `sig`, as (pairs, j2), where pairs are the (coordinate, change)
    of the displacement's nonzero entries."""
    base, cums = kernel.moves(sig)
    return [(tuple((i, dz) for i, dz in enumerate(DISPLACEMENTS[kernel.move_z[m]]) if dz),
             kernel.move_dest[m]) for m in range(base[j], base[j] + len(cums[j]))]


@pytest.mark.parametrize("which", ["np", "phmap"])
def test_move_edges_are_the_clocks_moves(which, np_model):
    kernel = BlockKernel(np_model if which == "np" else phmap_model())
    for sig in ALL_SIGS:
        from_edges = []
        for z, (rows, cols, _) in kernel.move_edges(sig).items():
            pairs = tuple((i, dz) for i, dz in enumerate(z) if dz)
            from_edges += [(j, pairs, j2) for j, j2 in zip(rows.tolist(), cols.tolist())]
        from_table = [(j, pairs, j2) for j in range(kernel.S0)
                      for pairs, j2 in _table_moves(kernel, sig, j)]
        assert sorted(from_table) == sorted(from_edges), sig


def test_no_move_diagonal_is_never_a_move(np_model, monkeypatch):
    # validation lets a diagonal rate reach +1e-12, above RATE_TOL
    real = generator._refill

    def raised(pattern, values):
        # the no-move blocks' diagonals hold the kernel's only negative rates
        blocks, sums = real(pattern, values)
        return ([(rows, cols, np.where(rates < 0, 1e-13, rates)) for rows, cols, rates in blocks],
                np.where(sums < 0, 1e-13, sums))

    monkeypatch.setattr(generator, "_refill", raised)
    kernel = BlockKernel(np_model)
    # nor is it one of the probe's edges
    _, _, still = generator._kernel_pattern(*kernel.pattern_key)
    assert still.any() and not np.frombuffer(kernel.move_set, dtype=bool)[still].any()
    assert (dense(kernel.q_blocks((1, 1, 1, 1))[(0, 0, 0, 0)], kernel.S0).diagonal()
            == 1e-13).all()
    rows, cols, _ = kernel.move_edges((1, 1, 1, 1))[(0, 0, 0, 0)]
    assert rows.size and not (rows == cols).any()
    assert all(pairs or j2 != j for j in range(kernel.S0)
               for pairs, j2 in _table_moves(kernel, (1, 1, 1, 1), j))


def test_regime_signature_collapses_counts():
    assert regime_signature((0, 1, 2, 7)) == (0, 1, 2, 2)
    assert regime_signature((3, 3, 3, 3)) == (2, 2, 2, 2)


# --- generator soundness --------------------------------------------------------

def test_q_rows_sum_to_zero_everywhere(np_model):
    kernel = kernel_of(np_model)
    for sig in ALL_SIGS:
        total = sum(dense(B, kernel.S0).sum(axis=1) for B in kernel.q_blocks(sig).values())
        assert np.max(np.abs(total)) <= 1e-10, sig


def test_shared_q_blocks_are_read_only(np_model):
    blocks = kernel_of(np_model).q_blocks((1, 1, 1, 1))
    for B in blocks.values():
        for a in B:
            with pytest.raises(ValueError):
                a[0] = 1
    assert kernel_of(np_model).q_blocks((1, 1, 1, 1)) is blocks


def test_blocks_depend_only_on_signature(np_model):
    rng = np.random.default_rng(7)
    moves = [(1, 0, 0, 0), (0, 0, 1, 0), (-1, 1, 0, 0), (0, -1, 0, 0),
             (0, -1, 1, 0), (0, 0, -1, 1), (0, 0, 0, -1), (0, 0, 0, 0)]
    for _ in range(200):
        x = tuple(int(v) for v in rng.integers(0, 3, 4))
        bump = tuple(int(v) for v in rng.integers(0, 5, 4))
        # raising any coordinate that is already >= 2 keeps the signature
        x2 = tuple(v + (b if v >= 2 else 0) for v, b in zip(x, bump))
        assert regime_signature(x) == regime_signature(x2)
        z = moves[int(rng.integers(0, len(moves)))]
        xp = tuple(a + b for a, b in zip(x, z))
        xp2 = tuple(a + b for a, b in zip(x2, z))
        if min(xp) < 0 or min(xp2) < 0:
            continue
        assert np.array_equal(dense_block(np_model, x, xp), dense_block(np_model, x2, xp2))


def test_diagonal_block_is_kronecker_sum(np_model):
    m = np_model
    got = dense_block(m, (0, 0, 0, 0), (0, 0, 0, 0))
    want = _kronsum([m.map1.C, m.map3.C, m.msp1.t["00"], m.msp2.t["00"]])
    assert np.allclose(got, want, atol=1e-14)


def test_feedback_block_matches_composition(np_model):
    m = np_model
    got = dense_block(m, (1, 1, 0, 2), (1, 0, 1, 2))
    T = m.msp2.t["01*"] @ m.msp2.u["0*0"]
    want = np.kron(np.eye(1), np.kron(np.eye(1), np.kron(np.eye(3), m.p * T)))
    assert np.allclose(got, want, atol=1e-14)


def test_unmatched_move_gives_zero_block(np_model):
    assert not dense_block(np_model, (1, 1, 1, 1), (0, 1, 1, 0)).any()


# --- uniformization -------------------------------------------------------------

def test_ctmc_and_uniformized_chain_share_stationary_vector(np_model):
    # on the all-saturated induced chain the two descriptions coincide
    kernel = kernel_of(np_model)
    QN = sum(dense(B, kernel.S0) for B in kernel.q_blocks((2, 2, 2, 2)).values())
    nu = 1.05 * np.max(-np.diag(QN))
    PN = np.eye(kernel.S0) + QN / nu
    A = QN.T.copy()
    A[-1] = 1.0
    b = np.zeros(kernel.S0)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    assert np.max(np.abs(pi @ QN)) <= 1e-9
    assert np.max(np.abs(pi @ PN - pi)) <= 1e-9


# --- semi-irreducibility probe ----------------------------------------------

def test_probe_confirms_nonpreemptive_model(np_model):
    assert check_semi_irreducible(np_model) == (CONFIRMED, None)


def test_probe_confirms_limited_model():
    assert check_semi_irreducible(symmetric_limited_model(3)) == (CONFIRMED, None)


def test_probe_confirms_full_feedback_line():
    model = exp_model(lam1=1.0, lam3=0.0, p=1.0, mus=(4.0, 2.4, 4.2, 2.2))
    assert check_semi_irreducible(model) == (CONFIRMED, None)


def test_probe_unknown_without_arrivals():
    # every queue drains, but no arrival ever wakes an idle server
    phs = [exponential_ph(m) for m in (4.0, 2.4, 4.2, 2.2)]
    silent = validate_map([[0.0]], [[0.0]])
    model = build_network(silent, silent, *phs, 0.3, "non_preemptive")
    assert check_semi_irreducible(model, probe_state=(0, 0, 1, 0)) == (
        UNKNOWN, "the probe state is not reached from level 0 in background state 0 "
                 "(0, 0, 0, 0)")


def never_completing_model():
    """`exp_model()` as a custom discipline whose class-1 service phase
    (station 1's phase 1) never completes."""
    base = as_custom(exp_model())
    t = {k: v.copy() for k, v in base.msp1.t.items()}
    for k in ("1*0", "2*0", "1*+", "2*+"):
        t[k][1] = 0.0
    t["+0"][1, 1] = t["++"][1, 1] = 0.0
    msp1 = MSPSpec(base.msp1.n, base.msp1.s_lo, base.msp1.s_hi, t, base.msp1.u, "custom")
    return build_network(base.map1, base.map3, *base.ph, base.p, "custom",
                         msp1=msp1, msp2=base.msp2)


def test_a_phase_that_never_completes_fails_the_drain_lemma_by_name():
    # with queue 1 alone occupied, station 1 starts the class-1 service
    # from idle and never ends it, whatever the background state
    model = never_completing_model()
    assert _reference_lemma(model) == ((1, 0, 0, 0), 0)
    assert check_semi_irreducible(model) == (
        UNKNOWN, "the drain lemma fails at signature (1, 0, 0, 0): background state 0 "
                 "(0, 0, 0, 0) reaches no completion by phase moves")
    report = classify(model, mode="numeric")
    assert report.semi_irreducibility == UNKNOWN
    assert report.reasons[0] == ("semi-irreducibility not confirmed: the drain lemma fails "
                                 "at signature (1, 0, 0, 0): background state 0 (0, 0, 0, 0) "
                                 "reaches no completion by phase moves")


def test_background_index_is_checked(np_model):
    kernel = kernel_of(np_model)
    assert kernel.dims == (1, 1, 3, 3)
    assert kernel.background_index(8) == 8
    assert kernel.background_index((0, 0, 2, 1)) == 7
    for bad in (-1, 9, (0, 0, 3, 0), (0, 0, -1, 0), (0, 0, 0)):
        with pytest.raises(ValueError):
            kernel.background_index(bad)
    # both ends of the range: the probe neither wraps into the next cell
    # nor hands a negative index to the search
    for j in (-1, kernel.S0):
        with pytest.raises(ValueError):
            check_semi_irreducible(np_model, probe_state=j)


def _reference_lemma(model):
    """The drain lemma's first failure, by a plain BFS per state over
    dense blocks: the first (signature, j), in flat signature order, from
    which no path of phase moves reaches a state with a completion move;
    None when there is none."""
    kernel = kernel_of(model)
    S0 = kernel.S0
    for sig in ALL_SIGS[1:]:
        phase, ends = np.zeros((S0, S0), dtype=bool), np.zeros(S0, dtype=bool)
        for z, B in kernel.q_blocks(sig).items():
            moves = dense(B, S0) > RATE_TOL
            if not any(z):
                phase = moves & ~np.eye(S0, dtype=bool)
            elif min(z) < 0:
                ends |= moves.any(axis=1)
        for j in range(S0):
            seen, queue = {j}, deque([j])
            while queue:
                for k in np.flatnonzero(phase[queue.popleft()]).tolist():
                    if k not in seen:
                        seen.add(k)
                        queue.append(k)
            if not ends[sorted(seen)].any():
                return sig, j
    return None


def _reference_probe(model, probe):
    """The probe's verdict by a plain BFS over the predecessor lists of
    every state of the box {0, 1}^4 x S0, read off the blocks: whether
    every level-0 state reaches level 0 in background `probe`, a phase
    tuple."""
    kernel = kernel_of(model)
    S0 = kernel.S0
    cells = list(itertools.product(range(2), repeat=4))
    index = {x: i for i, x in enumerate(cells)}
    edges = {}
    for sig in ALL_SIGS:
        edges[sig] = [(z, list(zip(*np.nonzero(dense(B, S0) > RATE_TOL))))
                      for z, B in kernel.q_blocks(sig).items()]
    preds = [[] for _ in range(len(cells) * S0)]
    for x in cells:
        for z, pairs in edges[regime_signature(x)]:
            y = tuple(a + b for a, b in zip(x, z))
            if y not in index:
                continue
            for j, k in pairs:
                src, dst = index[x] * S0 + j, index[y] * S0 + k
                if src != dst:
                    preds[dst].append(src)
    target = int(np.ravel_multi_index(probe, kernel.dims))
    seen = {target}
    queue = deque([target])
    while queue:
        for s in preds[queue.popleft()]:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return CONFIRMED if all(j in seen for j in range(S0)) else UNKNOWN


def test_probe_agrees_with_reference_bfs(np_model):
    phs = [exponential_ph(m) for m in (4.0, 2.4, 4.2, 2.2)]
    silent = validate_map([[0.0]], [[0.0]])
    no_arrivals = build_network(silent, silent, *phs, 0.3, "non_preemptive")
    readme = exp_model(mus=(5.0, 2.4, 5.0, 2.2))
    empty = (0, 0, 0, 0)
    cases = [
        (np_model, empty, CONFIRMED),
        (symmetric_limited_model(3), empty, CONFIRMED),
        (phmap_model(), empty, CONFIRMED),
        # a background given as an index
        (np_model, 0, CONFIRMED),
        (readme, empty, CONFIRMED),
        # as a tuple of (arrival, arrival, server, server) phases
        (phmap_model(), (1, 0, 0, 0), CONFIRMED),
        (no_arrivals, empty, CONFIRMED),
        # no arrival ever wakes a server, so a busy-server target is unreachable
        (no_arrivals, (0, 0, 1, 0), UNKNOWN),
        # with both queues empty, a busy phase is a placeholder that is left
        # at once and never entered
        (readme, (0, 0, 1, 2), UNKNOWN),
        (phmap_model(), (1, 0, 2, 1), UNKNOWN),
    ]
    for model, probe, want in cases:
        assert _reference_lemma(model) is None
        got, _ = check_semi_irreducible(model, probe_state=probe)
        assert got == _reference_probe(model, _phases(model, probe)) == want, probe


def _phases(model, probe):
    """Background `probe`, an index or a phase tuple, as a phase tuple."""
    if isinstance(probe, tuple):
        return probe
    return tuple(int(v) for v in np.unravel_index(probe, kernel_of(model).dims))


_SILENT = validate_map([[0.0]], [[0.0]])


@st.composite
def probe_cases(draw):
    """(model, probe background): silent, Poisson or two-phase MMPP
    arrivals; exponential, Erlang-2 or two-branch hyperexponential
    services; p of 0, 1 or between; the non-preemptive, preemptive-resume
    and (1,K)-limited disciplines with K <= 3.  S0 is at most 36 (one MMPP
    already gives 2 * 3 * 3 = 18); the background is an index or a phase
    tuple."""
    rate = st.floats(min_value=0.5, max_value=5.0)

    def arrivals():
        kind = draw(st.sampled_from(["silent", "poisson", "mmpp"]))
        if kind == "silent":
            return _SILENT
        if kind == "poisson":
            return poisson_map(draw(rate))
        q = draw(rate)
        return mmpp_map([[-q, q], [q, -q]], [draw(rate), draw(st.sampled_from([0.0, 1.0]))])

    def service():
        kind = draw(st.sampled_from(["exponential", "erlang", "hyperexponential"]))
        if kind == "exponential":
            return exponential_ph(draw(rate))
        if kind == "erlang":
            return erlang_ph(2, draw(rate))
        return hyperexponential_ph([0.3, 0.7], [draw(rate), draw(rate)])

    map1, map3 = arrivals(), arrivals()
    phs = [service() for _ in range(4)]
    p = draw(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.05, max_value=0.95))
    discipline = draw(st.sampled_from(["non_preemptive", "preemptive_resume", "limited"]))
    K = draw(st.integers(min_value=1, max_value=3)) if discipline == "limited" else None
    model = build_network(map1, map3, *phs, p, discipline, K)
    dims = (map1.dim, map3.dim, model.msp1.n, model.msp2.n)
    S0 = int(np.prod(dims))
    assume(S0 <= 36)
    j = draw(st.integers(min_value=0, max_value=S0 - 1))
    if draw(st.booleans()):
        j = tuple(int(v) for v in np.unravel_index(j, dims))
    return model, j


@settings(max_examples=30, deadline=None)
@given(probe_cases())
# no arrivals: a busy background is reached from no state of level 0
@example((build_network(_SILENT, _SILENT, *[exponential_ph(2.0)] * 4, 0.5,
                        "limited", 2), 3))
# ... nor does an idle server ever start
@example((build_network(_SILENT, _SILENT, *[hyperexponential_ph([0.3, 0.7], [1.0, 4.0])] * 4,
                        0.0, "preemptive_resume"), (0, 0, 1, 0)))
# a class-1 service that never completes fails the lemma
@example((never_completing_model(), 0))
def test_probe_matches_reference_bfs_on_random_models(case):
    # the lemma's first failure by name, else the search's verdict
    model, probe = case
    verdict, why = check_semi_irreducible(model, probe_state=probe)
    first = _reference_lemma(model)
    if first is None:
        assert verdict == _reference_probe(model, _phases(model, probe))
        assert (why is None) == (verdict == CONFIRMED), why
    else:
        sig, j = first
        assert (verdict, why) == (UNKNOWN, f"the drain lemma fails at signature {sig}: "
                                           f"background state {j} {_phases(model, j)} "
                                           "reaches no completion by phase moves")


def _reference_q(model, sig):
    """The q blocks of one signature, built from the model's matrices
    with no sharing across signatures."""
    kron4, kronsum4 = _np_kron4, _np_kronsum4
    m = model
    Ia1, Ia3 = np.eye(m.map1.dim), np.eye(m.map3.dim)
    Im1, Im2 = np.eye(m.msp1.n), np.eye(m.msp2.n)
    t1, u1, t2, u2 = m.msp1.t, m.msp1.u, m.msp2.t, m.msp2.u
    g1, g2, g3, g4 = ("0" if c == 0 else "+" for c in sig)
    c1, c2, c3, c4 = ("1*" if c == 1 else "2*" for c in sig)
    blocks = {
        (1, 0, 0, 0): kron4(m.map1.D, Ia3, u1[f"{g1}*{g4}"], Im2),
        (0, 0, 1, 0): kron4(Ia1, m.map3.D, Im1, u2[f"{g3}*{g2}"]),
    }
    if sig[0]:
        blocks[(-1, 1, 0, 0)] = kron4(Ia1, Ia3, t1[f"{c1}{g4}"], u2[f"{g3}{g2}*"])
    if sig[1]:
        T2c = t2[f"{g3}{c2}"]
        blocks[(0, -1, 0, 0)] = kron4(Ia1, Ia3, Im1, (1.0 - m.p) * T2c)
        after = "0" if sig[1] == 1 else "+"
        blocks[(0, -1, 1, 0)] = kron4(Ia1, Ia3, Im1, m.p * (T2c @ u2[f"{g3}*{after}"]))
    if sig[2]:
        blocks[(0, 0, -1, 1)] = kron4(Ia1, Ia3, u1[f"{g1}{g4}*"], t2[f"{c3}{g2}"])
    if sig[3]:
        blocks[(0, 0, 0, -1)] = kron4(Ia1, Ia3, t1[f"{g1}{c4}"], Im2)
    blocks[(0, 0, 0, 0)] = kronsum4([m.map1.C, m.map3.C, t1[f"{g1}{g4}"], t2[f"{g3}{g2}"]])
    return blocks


# side 1-4 square factors whose entries include signed zeros and subnormals;
# four factors of at most 1e6 cannot overflow
_KRON_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0]),
                          st.floats(min_value=-1e6, max_value=1e6))
_KRON_FACTORS = st.lists(st.integers(1, 4), min_size=4, max_size=4).flatmap(
    lambda sides: st.tuples(*(hnp.arrays(np.float64, (n, n), elements=_KRON_ENTRIES)
                              for n in sides)))


@settings(max_examples=100, deadline=None)
@given(_KRON_FACTORS)
def test_kron_products_are_byte_exact(mats):
    # the triplets are the reference's nonzeros, in row-major order, with its bytes
    n = int(np.prod([len(m) for m in mats]))
    eyes = tuple(np.eye(len(m)) for m in mats)
    terms = [eyes[:i] + (m,) + eyes[i + 1:] for i, m in enumerate(mats)]
    for got, want in ((generator._kron_sum([mats], n), _np_kron4(*mats)),
                      (generator._kron_sum(terms, n), _np_kronsum4(mats))):
        rows, cols, rates = triplets(want)
        assert np.array_equal(got[0], rows) and np.array_equal(got[1], cols)
        assert got[2].tobytes() == rates.tobytes()
        # scattered back, the same bytes as the reference once its zeros are +0.0
        assert dense(got, n).tobytes() == (want + 0.0).tobytes()


@pytest.mark.parametrize("pair", [*range(len(PH_PAIRS)), "limited8"])
def test_shared_blocks_match_per_signature_build(pair):
    arrivals = (mmpp_map([[-1.0, 1.0], [1.0, -1.0]], [0.5, 1.1]), poisson_map(0.4))
    disciplines = [("non_preemptive", None), ("preemptive_resume", None),
                   ("limited", 1), ("limited", 2), ("limited", 3)]
    if pair == "limited8":
        # the symmetric (1,8)-limited model: the K sweep's largest blocks (S0 = 100)
        models = [(("limited", 8), symmetric_limited_model(8))]
    else:
        lo, hi = PH_PAIRS[pair]
        models = [((d, K), build_network(*arrivals, lo, hi, lo, hi, 0.3, d, K=K))
                  for d, K in disciplines]
    for (discipline, K), model in models:
        kernel = BlockKernel(model)
        distinct = set()
        for sig in ALL_SIGS:
            got, want = kernel.q_blocks(sig), _reference_q(model, sig)
            assert list(got) == list(want), (discipline, K, sig)
            for z, B in got.items():
                rows, cols, rates = triplets(want[z])
                assert np.array_equal(B[0], rows) and np.array_equal(B[1], cols), (sig, z)
                assert B[2].tobytes() == rates.tobytes(), (discipline, K, sig, z)
                distinct.add(id(B))
        # one set of triplets per distinct (displacement, regime symbols)
        assert len(distinct) == 68, (discipline, K)


@st.composite
def refill_cases(draw):
    """(first model, model, whether one of the model's Kronecker products
    underflows to 0.0): one random built-in model twice, first with its
    rates scaled and p = 0.5, then with p of 0 or 1 (a factor of zeros: a
    new pattern), 1e-20 (the same pattern, but moves at or below RATE_TOL)
    or between.  Poisson or two-phase MMPP arrivals; exponential, Erlang-2
    or two-branch hyperexponential services; the non-preemptive,
    preemptive-resume and (1,K)-limited disciplines with K <= 3; S0 <= 64."""
    rate = st.floats(min_value=0.5, max_value=5.0)
    arrivals = [draw(st.one_of(st.tuples(st.just("poisson"), rate),
                               st.tuples(st.just("mmpp"), rate, rate, rate))) for _ in range(2)]
    services = [draw(st.one_of(st.tuples(st.just("exponential"), rate),
                               st.tuples(st.just("erlang"), rate),
                               st.tuples(st.just("hyperexponential"), rate, rate)))
                for _ in range(4)]
    discipline, K = draw(st.sampled_from([("non_preemptive", None), ("preemptive_resume", None),
                                          ("limited", 1), ("limited", 2), ("limited", 3)]))
    maps = {"poisson": lambda s, a: poisson_map(s * a),
            "mmpp": lambda s, q, a, b: mmpp_map([[-s * q, s * q], [s * q, -s * q]], [s * a, s * b])}
    phs = {"exponential": lambda s, a: exponential_ph(s * a),
           "erlang": lambda s, a: erlang_ph(2, s * a),
           "hyperexponential": lambda s, a, b: hyperexponential_ph([0.3, 0.7], [s * a, s * b])}

    def build(s, p):
        return build_network(*(maps[kind](s, *args) for kind, *args in arrivals),
                             *(phs[kind](s, *args) for kind, *args in services), p, discipline, K)

    model = build(1.0, draw(st.one_of(st.sampled_from([0.0, 1.0, 1e-20]),
                                      st.floats(min_value=0.05, max_value=0.95))))
    assume(model.map1.dim * model.map3.dim * model.msp1.n * model.msp2.n <= 64)
    return build(draw(st.floats(min_value=0.25, max_value=4.0)), 0.5), model, False


def _tiny_model(rate, p=0.3):
    # D1 (x) U1 multiplies the class-1 arrival rate by a first-phase weight
    return build_network(poisson_map(rate), poisson_map(0.4),
                         hyperexponential_ph([rate, 1.0], [2.0, 3.0]),
                         *[exponential_ph(m) for m in (2.0, 3.0, 2.0)], p, "non_preemptive")


@settings(max_examples=50, deadline=None)
@given(refill_cases())
@example((exp_model(p=0.5), exp_model(p=0.0), False))
@example((exp_model(p=0.5), exp_model(p=1.0), False))
@example((exp_model(p=0.5), exp_model(p=1e-20), False))
@example((_tiny_model(1e-170), _tiny_model(1e-200), True))  # 1e-340 is subnormal; 1e-400 is 0.0
def test_refilled_blocks_are_byte_identical_to_a_cold_build(case):
    first, model, underflows = case
    generator._kernel_pattern.cache_clear()
    before = BlockKernel(first)
    hits = generator._kernel_pattern.cache_info().hits
    warm = BlockKernel(model)
    shared = warm.pattern_key == before.pattern_key
    assert generator._kernel_pattern.cache_info().hits == hits + shared
    # a p of 0 or 1 zeroes a factor; a p of 1e-20 keeps the pattern but not the moves
    assert shared == (0.0 < model.p < 1.0)
    if model.p == 1e-20:
        assert warm.move_set != before.move_set
    generator._kernel_pattern.cache_clear()
    cold = BlockKernel(model)
    assert warm.pattern_key == cold.pattern_key and warm.move_set == cold.move_set
    for sig in ALL_SIGS:
        got, want = warm.q_blocks(sig), cold.q_blocks(sig)
        reference = _reference_q(model, sig)
        assert list(got) == list(want) == list(reference), sig
        for z, B in got.items():
            assert all(a.tobytes() == b.tobytes() for a, b in zip(B, want[z])), (sig, z)
            rows, cols, rates = triplets(reference[z])
            assert np.array_equal(B[0], rows) and np.array_equal(B[1], cols), (sig, z)
            assert B[2].tobytes() == rates.tobytes(), (sig, z)
    # an underflowing product is in the pattern, but no block keeps it
    kept = sum(len(rows) for rows, _, _ in cold._blocks)
    pattern = generator._kernel_pattern(*cold.pattern_key)[0]
    assert (kept < len(pattern[0][0])) == underflows


# --- lattice assembly ------------------------------------------------------------

def _kron_lattice(block_fn, shape, S0):
    """Reference assembly: one 0/1 lattice map per (signature,
    displacement), out-of-box targets clipped onto the boundary,
    Kronecker-multiplied by its block and summed.  A 0-D box has one cell."""
    ncells = int(np.prod(shape))
    rows, cols, data = [], [], []
    for sig in np.ndindex(*(3,) * len(shape)):
        axes = [np.array([0]) if c == 0 else np.array([1]) if c == 1
                else np.arange(2, L) for c, L in zip(sig, shape)]
        grids = np.meshgrid(*axes, indexing="ij")
        cells = np.atleast_1d(np.ravel_multi_index([g.ravel() for g in grids], shape))
        if cells.size == 0:
            continue
        for z, B in block_fn(tuple(sig)).items():
            tgt = [np.clip(g.ravel() + dz, 0, L - 1) for g, dz, L in zip(grids, z, shape)]
            lattice = sp.coo_matrix(
                (np.ones(cells.size), (cells, np.atleast_1d(np.ravel_multi_index(tgt, shape)))),
                shape=(ncells, ncells))
            part = sp.kron(lattice, sp.csr_matrix(dense(B, S0)), format="coo")
            rows.append(part.row)
            cols.append(part.col)
            data.append(part.data)
    total = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ncells * S0, ncells * S0))
    total.sum_duplicates()
    return total.tocsr()


@pytest.mark.parametrize("which", ["np", "phmap"])
def test_assembly_matches_kronecker_reference(which):
    model = exp_model() if which == "np" else phmap_model()
    kernel = kernel_of(model)
    S0 = kernel.S0
    cases = [
        (build_induced_chain(kernel, (1, 2, 3, 4)).q_blocks, ()),
        (build_induced_chain(kernel, (1, 2, 3)).q_blocks, (4,)),
        (build_induced_chain(kernel, (1, 4)).q_blocks, (4, 4)),
        (build_induced_chain(kernel, (1, 4)).q_blocks, (3, 6)),
        (kernel.q_blocks, (3,) * 4),
        (kernel.q_blocks, (2, 4, 3, 2)),
        (kernel.q_blocks, (4 if which == "np" else 2,) * 4),
    ]
    for block_fn, shape in cases:
        got = lattice_csr(block_fn, shape, S0)
        want = _kron_lattice(block_fn, shape, S0)
        assert got.shape == want.shape == (int(np.prod(shape)) * S0,) * 2
        assert np.array_equal(got.indptr, want.indptr), shape
        assert np.array_equal(got.indices, want.indices), shape
        assert np.array_equal(got.data, want.data), shape


def test_lattice_triplets_without_blocks_are_empty_and_canonical():
    # a block_fn that yields no block for any signature of the box, such
    # as one level's moves down from level 0, gives no entry, not an error
    for shape in ((), (3,), (2, 4)):
        rows, cols, data, n = lattice_triplets(lambda sig: {}, shape, 5)
        assert n == 5 * int(np.prod(shape))
        assert rows.size == cols.size == data.size == 0
        assert rows.dtype == cols.dtype == np.int64 and data.dtype == np.float64
    # blocks at some signatures only: the others add nothing
    rows, cols, data, n = lattice_triplets(
        lambda sig: {(1,): triplets(np.eye(2))} if sig == (0,) else {}, (3,), 2)
    assert (rows.tolist(), cols.tolist(), data.tolist(), n) == ([0, 1], [2, 3], [1.0, 1.0], 6)


def test_folded_entries_sum_as_first_plus_the_rest():
    # three moves of one cell fold onto one state, emitted 1e16, 1, 1:
    # reduceat adds 1e16 + (1 + 1), where left to right would give 1e16
    def folded(*rates):
        # on a one-cell box, moves 0, +1 and -1 all fold onto the cell
        moves = dict(zip([(0,), (1,), (-1,)], (triplets(np.array([[r]])) for r in rates)))
        return lattice_triplets(lambda sig: moves, (1,), 1)

    rows, cols, data, n = folded(1e16, 1.0, 1.0)
    assert (rows.tolist(), cols.tolist(), n) == ([0], [0], 1)
    assert data.tolist() == [1.0000000000000002e16] != [(1e16 + 1.0) + 1.0]
    # the emission order decides: 1 + (1 + 1e16) rounds back to 1e16
    assert folded(1.0, 1.0, 1e16)[2].tolist() == [1e16]


# --- the truncated generator -----------------------------------------------------

# sha256 of the radius-2 truncations (box 3^4) of kernels whose blocks equal
# the factor-by-factor np.kron reference, written as a "#" header and one
# "row col rate" line per rate above RATE_TOL: a rate moving by one ulp
# changes them
PINNED_TRIPLETS = {
    "readme": "4e4848984e7bf75da01d09d0c07121127534b80124c9de8ae87a218e60b268e8",
    "limited3": "97da74fc9c4ee87fc4a94fcaa94db8f6453457db1c4a760df3e1e84104173ad6",
}


def test_triplet_exports_are_pinned():
    models = {"readme": exp_model(mus=(5.0, 2.4, 5.0, 2.2)),
              "limited3": symmetric_limited_model(3)}
    for name, model in models.items():
        kernel = kernel_of(model)
        rows, cols, data, _ = lattice_triplets(kernel.q_blocks, (3,) * 4, kernel.S0)
        text = f"# truncated generator, box 3^4 x {kernel.S0}\n" + "".join(
            f"{r} {c} {float(v)!r}\n" for r, c, v in zip(rows, cols, data) if abs(v) > RATE_TOL)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TRIPLETS[name], name


def test_triplet_export_is_deterministic(np_model):
    # a second kernel of the model gives the same bytes, in row-major order
    S0, L = 9, 2
    rows, cols, data, n = lattice_triplets(kernel_of(np_model).q_blocks, (L,) * 4, S0)
    again = lattice_triplets(BlockKernel(np_model).q_blocks, (L,) * 4, S0)
    assert all(a.tobytes() == b.tobytes() for a, b in zip((rows, cols, data), again))
    assert (np.diff(rows * n + cols) > 0).all()
    assert data[0] != 0.0
    # spot-check one entry against its block; the empty cell's row has no
    # move out of the box, so folding leaves it as it is
    x = np.unravel_index(rows[0] // S0, (L,) * 4)
    xp = np.unravel_index(cols[0] // S0, (L,) * 4)
    B = dense_block(np_model, x, xp)
    assert B[rows[0] % S0, cols[0] % S0] == pytest.approx(data[0], rel=1e-12)


def test_triplet_export_rows_sum_to_zero(np_model):
    # the reflecting truncation: moves out of the box fold onto its
    # boundary, so every row of the generator sums to zero
    kernel = kernel_of(np_model)
    rows, _, data, n = lattice_triplets(kernel.q_blocks, (2,) * 4, kernel.S0)
    assert np.abs(np.bincount(rows, data, n)).max() <= 1e-12


# --- one sparse form at large S0 -----------------------------------------------

def test_kernel_blocks_of_sym_k30_fit_in_16_mb():
    # S0 = 1,024: its 68 blocks would take 544 MB as dense S0 x S0 arrays;
    # as triplets they hold 49,920 nonzeros
    import tracemalloc

    model = symmetric_limited_model(30)
    tracemalloc.start()
    try:
        kernel = BlockKernel(model)
        for sig in ALL_SIGS:
            kernel.q_blocks(sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.S0 == 1024 and len(kernel._blocks) == 69
    assert sum(len(rows) for rows, _, _ in kernel._blocks) == 49920
    assert peak < 16 * 2 ** 20, peak


def test_s0_4096_model_validates_and_solves_face_n(tmp_path, capsys):
    # the sym (1,20)-limited model with Erlang-3 services: S0 = 64^2 = 4,096;
    # its blocks would take about 9 GB dense.  The bound is 20 s on one vCPU,
    # where the whole test takes under 1 s.
    import json
    import time

    from netdrift.cli import load_model, main
    from netdrift.induced_chains import output_rates, solve_stationary

    start = time.perf_counter()
    model = {"arrivals": [{"poisson": 1.0}] * 2, "p": 0.0,
             "services": [{"erlang": {"phases": 3, "rate": 3 * r}} for r in (5.0, 1.8, 5.0, 1.8)],
             "discipline": {"limited": {"K": 20}}}
    path, out = tmp_path / "s0_4096.json", tmp_path / "out.json"
    path.write_text(json.dumps(model))
    assert main(["validate", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["backgroundStates"] == 4096
    assert report["semiIrreducibility"] == CONFIRMED
    kernel = kernel_of(load_model(str(path)))
    assert kernel.S0 == 4096
    for A in ((1, 2, 3, 4), (1, 2, 3), (1, 3, 4)):
        chain = build_induced_chain(kernel, A)
        sol = solve_stationary(chain)
        assert sol.converged, (A, sol.note)
        # flow balance: a free queue's output rate is its input rate
        mu = output_rates(chain, sol)
        for i in set(range(1, 5)) - set(A):
            lam = 1.0 if i in (1, 3) else mu[i - 2]
            assert mu[i - 1] == pytest.approx(lam, rel=1e-6), (A, i)
    assert time.perf_counter() - start < 20.0
