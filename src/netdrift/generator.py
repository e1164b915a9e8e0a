"""Transition kernel of the queue-length/background chain.

The full state is (x, j): four queue lengths plus a background index
j = (arrival phase 1, arrival phase 3, server state 1, server state 2).
Rates out of (x, j) depend on x only through its occupancy signature
sig(x) = (min(x_l, 2))_l, so the kernel is a finite family of S0 x S0
blocks indexed by signature and displacement z in {-1,0,1}^4:

    z = (1,0,0,0)   class-1 arrival        D1 (x) I (x) U1[a*b] (x) I
    z = (0,0,1,0)   class-3 arrival        I (x) D3 (x) I (x) U2[a*b]
    z = (-1,1,0,0)  class-1 completion     I (x) I (x) T1[c b] (x) U2[a b*]
    z = (0,-1,0,0)  class-2 departure      I (x) I (x) I (x) (1-p) T2[a c]
    z = (0,-1,1,0)  class-2 feedback       I (x) I (x) I (x) p T2[a c] U2[a* b']
    z = (0,0,-1,1)  class-3 completion     I (x) I (x) U1[a b*] (x) T2[c b]
    z = (0,0,0,-1)  class-4 departure      I (x) I (x) T1[a c] (x) I
    z = 0           background moves       C1 (+) C3 (+) T1[a b] (+) T2[a b]

where (+) is the Kronecker sum, the completion symbol c is 1* when the
departing queue holds exactly one customer and 2* otherwise, and the
U regimes are taken just before the triggering arrival (for feedback,
the class-2 count just after the completion).  Station-1 matrices are
indexed by (x1, x4) and station-2 matrices by (x3, x2).

The induced chains are solved on Q itself: the paper's uniformization
I + Q/nu has exactly Q's stationary vectors, and serves only to show that
the discrete chain and the CTMC are positive recurrent together.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .errors import EmptySubset, SkipFreeViolation, UnsupportedSubset
from .service_disciplines import NetworkModel

SUBSET_ALL = frozenset((1, 2, 3, 4))

# a rate at or below this is absent: no probe edge, clock or triplet
RATE_TOL = 1e-14


def saturated_subset(A):
    """A as a frozenset of queue indices; raises EmptySubset when it is
    empty and UnsupportedSubset when it names a queue outside 1..4."""
    A = frozenset(int(i) for i in A)
    if not A:
        raise EmptySubset("the saturated subset must be nonempty")
    if not A <= SUBSET_ALL:
        raise UnsupportedSubset(f"subset {sorted(A)} is not within {{1,2,3,4}}")
    return A


def regime_signature(x):
    """Occupancy signature: each count collapsed to 0, 1 or 2 (meaning >= 2)."""
    return tuple(min(int(v), 2) for v in x)


def _sym(c):
    return "0" if c == 0 else "+"


def _kron4(a, b, c, d):
    return reduce(np.kron, (a, b, c, d))


def _kronsum4(mats):
    dims = [m.shape[0] for m in mats]
    total = int(np.prod(dims))
    out = np.zeros((total, total))
    for i, m in enumerate(mats):
        left = int(np.prod(dims[:i])) if i > 0 else 1
        right = int(np.prod(dims[i + 1:])) if i + 1 < len(mats) else 1
        out += _kron4(np.eye(left), m, np.eye(right), np.eye(1))
    return out


class BlockKernel:
    """Signature-indexed transition blocks for one model: the model's one
    rate table, read by the probe, the induced chains and the simulator.

    The q blocks are built lazily, cached per signature and read-only,
    and a block that several signatures share is one array; the
    simulator's clocks are derived from them.  The caches are not
    locked: a kernel belongs to one thread (`sweep --jobs` runs its
    points in worker processes).
    """

    def __init__(self, model: NetworkModel):
        self.model = model
        self.dims = (model.map1.dim, model.map3.dim, model.msp1.n, model.msp2.n)
        self.S0 = int(np.prod(self.dims))
        self._q_cache = {}
        self._shared = {}
        self._clocks = {}

    # -- continuous-time blocks ------------------------------------------

    def q_blocks(self, sig):
        sig = tuple(int(v) for v in sig)
        hit = self._q_cache.get(sig)
        if hit is None:
            hit = self._q_cache[sig] = self._build_q(sig)
        return hit

    def _build_q(self, sig):
        """The blocks of regime `sig`.  A block depends on the signature
        only through the regime symbols it reads, so each distinct block
        is built once per kernel, keyed on (z, those symbols), and shared
        read-only across signatures."""
        m = self.model
        a1, a3, m1, m2 = self.dims
        Ia1, Ia3, Im1, Im2 = np.eye(a1), np.eye(a3), np.eye(m1), np.eye(m2)
        t1, u1 = m.msp1.t, m.msp1.u
        t2, u2 = m.msp2.t, m.msp2.u
        g1, g2, g3, g4 = (_sym(c) for c in sig)
        c1, c2, c3, c4 = ("1*" if c == 1 else "2*" for c in sig)
        p = m.p
        blocks = {}

        def share(z, key, build):
            B = self._shared.get((z, key))
            if B is None:
                B = self._shared[(z, key)] = build()
                B.flags.writeable = False
            blocks[z] = B

        share((1, 0, 0, 0), (g1, g4),
              lambda: _kron4(m.map1.D, Ia3, u1[f"{g1}*{g4}"], Im2))
        share((0, 0, 1, 0), (g3, g2),
              lambda: _kron4(Ia1, m.map3.D, Im1, u2[f"{g3}*{g2}"]))
        if sig[0] >= 1:
            share((-1, 1, 0, 0), (c1, g4, g3, g2),
                  lambda: _kron4(Ia1, Ia3, t1[f"{c1}{g4}"], u2[f"{g3}{g2}*"]))
        if sig[1] >= 1:
            T2c = t2[f"{g3}{c2}"]
            share((0, -1, 0, 0), (g3, c2),
                  lambda: _kron4(Ia1, Ia3, Im1, (1.0 - p) * T2c))
            g2post = "0" if sig[1] == 1 else "+"
            share((0, -1, 1, 0), (g3, c2),
                  lambda: _kron4(Ia1, Ia3, Im1, p * (T2c @ u2[f"{g3}*{g2post}"])))
        if sig[2] >= 1:
            share((0, 0, -1, 1), (g1, g4, c3, g2),
                  lambda: _kron4(Ia1, Ia3, u1[f"{g1}{g4}*"], t2[f"{c3}{g2}"]))
        if sig[3] >= 1:
            share((0, 0, 0, -1), (g1, c4),
                  lambda: _kron4(Ia1, Ia3, t1[f"{g1}{c4}"], Im2))
        share((0, 0, 0, 0), (g1, g2, g3, g4), lambda: _kronsum4(
            [m.map1.C, m.map3.C, t1[f"{g1}{g4}"], t2[f"{g3}{g2}"]]))
        return blocks

    # -- derived views -----------------------------------------------------

    def move_pattern(self, sig):
        """The moves out of regime `sig`: per block, where its rate
        exceeds RATE_TOL, without the no-move block's diagonal."""
        out = {z: B > RATE_TOL for z, B in self.q_blocks(sig).items()}
        np.fill_diagonal(out[(0, 0, 0, 0)], False)
        return out

    def clocks(self, sig):
        """Competing clocks out of each background state j in regime
        `sig`, as step tables: the cumulative rates of its moves as a
        float list, and the moves as (pairs, j2), where pairs are the
        (coordinate, change) of the displacement's nonzero entries; in
        block order, then column.  `sig` must be a tuple of ints."""
        hit = self._clocks.get(sig)
        if hit is None:
            rates = [[] for _ in range(self.S0)]
            moves = [[] for _ in range(self.S0)]
            blocks = self.q_blocks(sig)
            for z, on in self.move_pattern(sig).items():
                pairs = tuple((i, dz) for i, dz in enumerate(z) if dz)
                rr, cc = np.nonzero(on)
                for j, j2, rate in zip(rr.tolist(), cc.tolist(), blocks[z][rr, cc]):
                    rates[j].append(rate)
                    moves[j].append((pairs, j2))
            cums = [np.cumsum(r).tolist() for r in rates]
            hit = self._clocks[sig] = (cums, moves)
        return hit

    def check_state(self, state):
        """(x, j) as (four nonnegative ints, `background_index(j)`);
        raises ValueError when x or j names no state."""
        x, j = state
        x = tuple(int(v) for v in x)
        if len(x) != 4 or min(x) < 0:
            raise ValueError(f"queue lengths {x} must be four nonnegative counts")
        return x, self.background_index(j)

    def background_index(self, j):
        """Flat index of background state j, given as an int or as the
        phase tuple (arrival 1, arrival 3, server 1, server 2).  Raises
        ValueError when j names no background state."""
        if isinstance(j, tuple):
            if len(j) != 4 or not all(0 <= int(v) < n for v, n in zip(j, self.dims)):
                raise ValueError(f"background phases {j} lie outside {self.dims}")
            return int(np.ravel_multi_index(j, self.dims))
        j = int(j)
        if not 0 <= j < self.S0:
            raise ValueError(f"background index {j} lies outside 0..{self.S0 - 1}")
        return j


@lru_cache(maxsize=1)
def kernel_of(model: NetworkModel) -> BlockKernel:
    """The kernel of `model`, shared by every reader.
    Holds one model, so moving on to the next frees the last one's
    blocks.  Models compare by identity: do not change a model after
    its kernel is built."""
    return BlockKernel(model)


def generator_block(model: NetworkModel, x, xp):
    """Continuous-time rate block for the move x -> xp.

    Raises SkipFreeViolation when some coordinate changes by more than
    one.  Moves within distance one that match no event still return a
    zero block.
    """
    x = tuple(int(v) for v in x)
    xp = tuple(int(v) for v in xp)
    if len(x) != 4 or len(xp) != 4:
        raise SkipFreeViolation("states must have 4 coordinates")
    if any(v < 0 for v in x + xp):
        raise SkipFreeViolation("queue lengths must be nonnegative")
    z = tuple(b - a for a, b in zip(x, xp))
    if max(abs(v) for v in z) > 1:
        raise SkipFreeViolation(f"move {z} changes a coordinate by more than one")
    kernel = kernel_of(model)
    blocks = kernel.q_blocks(regime_signature(x))
    hit = blocks.get(z)
    if hit is None:
        return np.zeros((kernel.S0, kernel.S0))
    return hit


# -- lattice assembly --------------------------------------------------------
#
# STRATEGY: a truncated chain on {0..L_1-1} x ... x {0..L_d-1} x S0
# repeats each (signature, displacement) block over the cells of its
# signature: a nonzero (bi, bj) of the block at source cell s with target
# cell t is the entry (s*S0 + bi, t*S0 + bj).  Every entry is written by
# this index arithmetic into one COO, converted to CSR once.  Out-of-box
# moves fold onto the boundary (reflecting truncation).

def signature_ranges(sig_component, L):
    """The levels 0..L-1 of one coordinate whose signature entry is
    `sig_component` (0, 1, or 2 for two or more)."""
    if sig_component == 0:
        return np.array([0])
    if sig_component == 1:
        return np.array([1]) if L > 1 else np.array([], dtype=int)
    return np.arange(2, L)


def assemble_lattice(block_fn, shape, S0):
    """Sparse matrix of the chain truncated to the box `shape`, one level
    per free coordinate, as canonical CSR (sorted indices, no duplicates).

    block_fn(sig_free) -> dict mapping z_free to an S0 x S0 block.  State
    order: lattice cell (C order) major, background minor.  A move out of
    the box folds onto its boundary: each coordinate is clipped to
    0..L-1, so rows keep the blocks' row sums.  Entries folded onto one
    state are summed in the order they were emitted: signature, then
    displacement, then cell.
    """
    # scipy loads here, not at module level, so that parsing, simulation
    # and the probe import numpy alone
    import scipy.sparse as sp

    if not shape:
        blocks = block_fn(())
        return sp.csr_matrix(sum(blocks.values()))
    n = int(np.prod(shape)) * S0
    idx = np.int32 if n < 2 ** 31 else np.int64
    rows, cols, data = [], [], []
    for sig in np.ndindex(*(3,) * len(shape)):
        axes = [signature_ranges(c, L) for c, L in zip(sig, shape)]
        if any(a.size == 0 for a in axes):
            continue
        grids = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
        cells = np.ravel_multi_index(grids, shape)
        for z, B in block_fn(tuple(sig)).items():
            bi, bj = np.nonzero(B)
            tgt = np.ravel_multi_index(
                [np.clip(g + dz, 0, L - 1) for g, dz, L in zip(grids, z, shape)], shape)
            rows.append(((cells * S0).astype(idx)[:, None] + bi.astype(idx)).ravel())
            cols.append(((tgt * S0).astype(idx)[:, None] + bj.astype(idx)).ravel())
            data.append(np.tile(B[bi, bj], cells.size))
    if not rows:
        return sp.csr_matrix((n, n))
    # one array at a time, so each list of pieces is freed before the next
    # copy is made
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    total = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    total.sum_duplicates()
    return total.tocsr()


# -- reachability ------------------------------------------------------------

CONFIRMED = "ConfirmedSemiIrreducible"
UNKNOWN = "Unknown"


def check_semi_irreducible(model: NetworkModel, probe_state=None, radius=3):
    """Reverse BFS probe for semi-irreducibility.

    Checks that the probe state is reachable from every state of the
    box {0..radius}^4 x S0.  Paths are searched inside a larger box of
    side 4*radius + 2: draining a box state needs no arrivals and the
    total count never grows without one, so no coordinate can exceed
    4*radius along such a path, and the level above it is slack for one
    in-flight customer while walking the arrival phase.  Any path found
    is a genuine path of the chain, so success is a proof; failure only
    returns Unknown, because paths may still need more room.  The edges
    are the kernel's move patterns (rates above RATE_TOL between distinct
    states) with both ends in the box.  The search runs backwards from
    the probe state one layer at a time, generating predecessors from
    per-displacement tables, and stops once the inner box is covered:
    the reachable set only grows, so the verdict is the full search's.
    The probe state is (x, j), with j as `BlockKernel.background_index`
    takes it.
    """
    kernel = kernel_of(model)
    S0 = kernel.S0
    probe = kernel.check_state(probe_state or ((0, 0, 0, 0), 0))
    L = radius + 1
    if any(v >= L for v in probe[0]):
        return UNKNOWN
    side = 4 * radius + 2
    # per displacement z: the backgrounds j with a move (sig, j) -> z, j2,
    # as CSR rows keyed sig_index * S0 + j2 (signatures in ndindex order)
    pieces = {}
    for s, sig in enumerate(np.ndindex(3, 3, 3, 3)):
        for z, on in kernel.move_pattern(sig).items():
            j2, j = np.nonzero(on.T)
            pieces.setdefault(z, []).append((s * S0 + j2, j))
    tables = {}
    for z, parts in pieces.items():
        keys, js = (np.concatenate(v) for v in zip(*parts))
        tables[z] = (np.searchsorted(keys, np.arange(81 * S0 + 1)), js)
    shape = (side,) * 4 + (S0,)
    seen = np.zeros(shape, dtype=bool)
    inner = seen[(slice(0, L),) * 4]
    frontier = np.array([np.ravel_multi_index(probe[0] + (probe[1],), shape)])
    seen.flat[frontier] = True
    while frontier.size and not inner.all():
        *y, j2 = np.unravel_index(frontier, shape)
        found = []
        for z, (indptr, js) in tables.items():
            x = [a - dz for a, dz in zip(y, z)]
            ok = np.logical_and.reduce([(a >= 0) & (a < side) for a in x])
            x = [a[ok] for a in x]
            sig = sum(np.minimum(a, 2) * 3 ** (3 - i) for i, a in enumerate(x))
            key = sig * S0 + j2[ok]
            start, count = indptr[key], indptr[key + 1] - indptr[key]
            # the predecessor lists of the layer, one after another
            at = np.repeat(start - np.cumsum(count) + count, count)
            at += np.arange(at.size)
            base = np.ravel_multi_index(x, shape[:4]) * S0
            found.append(np.repeat(base, count) + js[at])
        found = np.concatenate(found)
        found = np.sort(found[~seen.flat[found]])
        frontier = found[np.diff(found, prepend=-1) != 0]
        seen.flat[frontier] = True
    return CONFIRMED if inner.all() else UNKNOWN


def write_generator_triplets(model: NetworkModel, radius, path):
    """Debug export: the generator of the reflecting truncation to
    {0..radius}^4 (see `assemble_lattice`), whose rows sum to zero, one
    "row col rate" line per nonzero, row-major order."""
    kernel = kernel_of(model)
    L = radius + 1
    Q = assemble_lattice(kernel.q_blocks, (L,) * 4, kernel.S0)
    rows = np.repeat(np.arange(Q.shape[0]), np.diff(Q.indptr))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# truncated generator, box {L}^4 x {kernel.S0}\n")
        for r, c, v in zip(rows, Q.indices, Q.data):
            if abs(v) <= RATE_TOL:
                continue
            fh.write(f"{r} {c} {float(v)!r}\n")
