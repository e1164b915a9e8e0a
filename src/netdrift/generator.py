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

from collections import defaultdict
from functools import lru_cache

import numpy as np

from .errors import EmptySubset, ProbeBoxTooLarge, SkipFreeViolation, UnsupportedSubset
from .service_disciplines import NetworkModel

SUBSET_ALL = frozenset((1, 2, 3, 4))

# a rate at or below this is absent: no probe edge, move or triplet
RATE_TOL = 1e-14

# the displacements z of the kernel's blocks, numbered for the move table,
# and the 81 regime signatures in flat index (`np.ndindex`) order
DISPLACEMENTS = ((1, 0, 0, 0), (0, 0, 1, 0), (-1, 1, 0, 0), (0, -1, 0, 0),
                 (0, -1, 1, 0), (0, 0, -1, 1), (0, 0, 0, -1), (0, 0, 0, 0))
SIGNATURES = tuple(np.ndindex(3, 3, 3, 3))


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


def _kron4(a, b, c, d):
    """reduce(np.kron, (a, b, c, d)) for square factors, as one broadcast
    product: ((a*b)*c)*d entrywise, so the same bytes, signed zeros too."""
    na, nb, nc, nd = len(a), len(b), len(c), len(d)
    return (a.reshape(na, 1, 1, 1, na, 1, 1, 1) * b.reshape(1, nb, 1, 1, 1, nb, 1, 1)
            * c.reshape(1, 1, nc, 1, 1, 1, nc, 1) * d.reshape(1, 1, 1, nd, 1, 1, 1, nd)
            ).reshape(na * nb * nc * nd, -1)


def _kronsum4(mats, eyes):
    """The Kronecker sum of four square `mats` of identities `eyes`, in term order."""
    n = int(np.prod([len(e) for e in eyes]))
    return sum((_kron4(*(m if k == i else e for k, e in enumerate(eyes)))
                for i, m in enumerate(mats)), np.zeros((n, n)))


def _move_edges(z, B):
    """The moves of block B at displacement z, as index arrays (j, j2) ordered
    by j2, then j: its rates above RATE_TOL, but no no-move diagonal."""
    on = B.T > RATE_TOL
    if not any(z):
        np.fill_diagonal(on, False)
    return np.nonzero(on)[::-1]


class BlockKernel:
    """Signature-indexed transition blocks for one model: the model's one
    rate table, read by the probe, the induced chains and the simulator.

    The q blocks are built lazily and read-only; the k-th distinct block
    (k >= 1) is built once per kernel, with its move edges `_edges[k]`, is
    one array for every signature that reads it, and `_numbers[z]` holds k
    per signature (`np.ndindex` order; 0: none).  The move table derives from them.
    The caches are not locked: a kernel belongs to one thread (`sweep
    --jobs` runs its points in worker processes).
    """

    def __init__(self, model: NetworkModel):
        self.model = model
        self.dims = (model.map1.dim, model.map3.dim, model.msp1.n, model.msp2.n)
        self.S0 = int(np.prod(self.dims))
        self._eyes = tuple(np.eye(n) for n in self.dims)
        self._q_cache = {}
        self._edges = [(np.zeros(0, dtype=np.intp),) * 2]
        self._numbers = defaultdict(lambda: [0] * 81)
        self._shared = {}
        self.regimes = [None] * 81
        self.move_dest, self.move_z, self._move_rows = [], [], np.empty((0, 3))

    # -- continuous-time blocks ------------------------------------------

    def q_blocks(self, sig):
        sig = tuple(int(v) for v in sig)
        hit = self._q_cache.get(sig)
        if hit is None:
            hit = self._q_cache[sig] = self._build_q(sig)
        return hit

    def move_edges(self, sig):
        """Per displacement, the `_move_edges` of regime `sig`'s blocks."""
        flat = 27 * sig[0] + 9 * sig[1] + 3 * sig[2] + sig[3]
        return {z: self._edges[self._numbers[z][flat]] for z in self.q_blocks(sig)}

    def _build_q(self, sig):
        """The blocks of regime `sig`.  A block is keyed on z and the regime
        symbols it reads, so that the signatures that share it share one
        array and number, and its edges are computed once, when it is built."""
        m = self.model
        Ia1, Ia3, Im1, Im2 = self._eyes
        t1, u1, t2, u2 = m.msp1.t, m.msp1.u, m.msp2.t, m.msp2.u
        g1, g2, g3, g4 = ("0" if c == 0 else "+" for c in sig)
        c1, c2, c3, c4 = ("1*" if c == 1 else "2*" for c in sig)
        blocks, flat = {}, 27 * sig[0] + 9 * sig[1] + 3 * sig[2] + sig[3]

        def share(z, key, build):
            hit = self._shared.get((z, key))
            if hit is None:
                B = build()
                B.flags.writeable = False
                self._edges.append(_move_edges(z, B))
                hit = self._shared[(z, key)] = B, len(self._edges) - 1
            blocks[z], self._numbers[z][flat] = hit

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
                  lambda: _kron4(Ia1, Ia3, Im1, (1.0 - m.p) * T2c))
            g2post = "0" if sig[1] == 1 else "+"
            share((0, -1, 1, 0), (g3, c2),
                  lambda: _kron4(Ia1, Ia3, Im1, m.p * (T2c @ u2[f"{g3}*{g2post}"])))
        if sig[2] >= 1:
            share((0, 0, -1, 1), (g1, g4, c3, g2),
                  lambda: _kron4(Ia1, Ia3, u1[f"{g1}{g4}*"], t2[f"{c3}{g2}"]))
        if sig[3] >= 1:
            share((0, 0, 0, -1), (g1, c4),
                  lambda: _kron4(Ia1, Ia3, t1[f"{g1}{c4}"], Im2))
        share((0, 0, 0, 0), (g1, g2, g3, g4), lambda: _kronsum4(
            [m.map1.C, m.map3.C, t1[f"{g1}{g4}"], t2[f"{g3}{g2}"]], self._eyes))
        return blocks

    # -- derived views -----------------------------------------------------

    def moves(self, sig):
        """The simulator's move table in regime `sig`, also kept as
        `regimes[flat index of sig]`: per background state j, the id
        `base[j]` of its first move and the cumulative rates of its moves as
        a float list, in block order, then column.  Move m goes to
        `move_dest[m]` by displacement `DISPLACEMENTS[move_z[m]]`.  A
        regime's moves are numbered once per kernel, after those of the
        regimes already built."""
        flat = 27 * sig[0] + 9 * sig[1] + 3 * sig[2] + sig[3]
        hit = self.regimes[flat]
        if hit is None:
            blocks, edges, first = self.q_blocks(sig), self.move_edges(sig), len(self.move_dest)
            j = np.concatenate([jj for jj, _ in edges.values()])
            order = np.argsort(j, kind="stable")
            dest = np.concatenate([jj2 for _, jj2 in edges.values()])[order]
            zn = np.concatenate([np.full(len(jj), DISPLACEMENTS.index(z))
                                 for z, (jj, _) in edges.items()])[order]
            counts = np.bincount(j, minlength=self.S0)
            starts = np.cumsum(counts) - counts
            # each j's rates as a zero-padded row, whose cumsum adds them in
            # order, as a cumsum of j's rates alone does
            padded = np.zeros((self.S0, counts.max(initial=0)))
            padded[j[order], np.arange(len(j)) - np.repeat(starts, counts)] = np.concatenate(
                [blocks[z][e] for z, e in edges.items()])[order]
            cums = [r[:n] for r, n in zip(np.cumsum(padded, axis=1).tolist(), counts.tolist())]
            # realloc, no copy: no view of the rows is ever handed out
            self._move_rows.resize((first + len(j), 3), refcheck=False)
            self._move_rows[first:] = np.column_stack([dest, zn, [c[-1] for c in cums for _ in c]])
            self.move_dest += dest.tolist()
            self.move_z += zn.tolist()
            hit = self.regimes[flat] = (first + starts).tolist(), cums
        return hit

    def move_rows(self, ids):
        """Rows (dest, displacement number, source's total rate) of moves `ids`: a copy."""
        return self._move_rows.take(ids, axis=0)

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
    x, xp = (tuple(int(v) for v in s) for s in (x, xp))
    if len(x) != 4 or len(xp) != 4:
        raise SkipFreeViolation("states must have 4 coordinates")
    if any(v < 0 for v in x + xp):
        raise SkipFreeViolation("queue lengths must be nonnegative")
    z = tuple(b - a for a, b in zip(x, xp))
    if max(abs(v) for v in z) > 1:
        raise SkipFreeViolation(f"move {z} changes a coordinate by more than one")
    kernel = kernel_of(model)
    hit = kernel.q_blocks(regime_signature(x)).get(z)
    return np.zeros((kernel.S0, kernel.S0)) if hit is None else hit


# -- lattice assembly --------------------------------------------------------
#
# STRATEGY: a truncated chain on {0..L_1-1} x ... x {0..L_d-1} x S0
# repeats each (signature, displacement) block over the cells of its
# signature: a nonzero (bi, bj) of the block at source cell s with target
# cell t is the entry (s*S0 + bi, t*S0 + bj).  This index arithmetic writes
# every entry into one set of canonical COO triplets, which the face
# solvers and the debug export read as they are: no sparse matrix class.
# Out-of-box moves fold onto the boundary (reflecting truncation).

def signature_ranges(sig_component, L):
    """The levels 0..L-1 of one coordinate whose signature entry is
    `sig_component` (0, 1, or 2 for two or more)."""
    if sig_component == 0:
        return np.array([0])
    if sig_component == 1:
        return np.array([1]) if L > 1 else np.array([], dtype=int)
    return np.arange(2, L)


def lattice_triplets(block_fn, shape, S0):
    """The chain truncated to the box `shape`, one level per free
    coordinate, as canonical COO triplets (rows, cols, data, n): sorted
    by row, then column, with no duplicates.

    block_fn(sig_free) -> dict mapping z_free to an S0 x S0 block.  State
    order: lattice cell (C order) major, background minor.  A move out of
    the box folds onto its boundary: each coordinate is clipped to
    0..L-1, so rows keep the blocks' row sums.  Entries folded onto one
    state are taken in the order they were emitted (signature, then
    displacement, then cell), and `np.add.reduceat` sums them as the
    first entry plus numpy's pairwise sum of the rest: 1e16, 1 and 1 sum
    to 1e16 + 2, not to the left-to-right 1e16.  Each off-diagonal entry
    is an edge: a rate.
    """
    n = int(np.prod(shape)) * S0
    keys, data = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
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
            keys.append(np.add.outer(cells * S0, bi).ravel() * n
                        + np.add.outer(tgt * S0, bj).ravel())
            data.append(np.tile(B[bi, bj], cells.size))
    # stable, so the entries folded onto one state stay in emission order
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    data = np.add.reduceat(np.concatenate(data)[order], first)
    rows, cols = np.divmod(keys[first], n)
    return rows, cols, data, n


# -- reachability ------------------------------------------------------------

CONFIRMED = "ConfirmedSemiIrreducible"
UNKNOWN = "Unknown"
# the largest probe box, in states: a byte each, and int32 flat indices
PROBE_STATES = 2 ** 28
PROBE_CHUNK = 4096  # frontier states per gather


def check_semi_irreducible(model: NetworkModel, probe_state=None, radius=3):
    """Reverse BFS probe for semi-irreducibility: Confirmed, a proof, when
    the probe state (x, j), j as `BlockKernel.background_index` takes it,
    is reached from every state of {0..radius}^4 x S0, else Unknown, as
    paths may need more room.  Paths are searched in a box of side
    4*radius + 2 (draining a box state needs no arrivals, and the count
    never grows without one, so no coordinate exceeds 4*radius; the level
    above is slack for an in-flight customer) of at most PROBE_STATES
    states, else ProbeBoxTooLarge.  The search runs back over the kernel's
    move edges a layer at a time, PROBE_CHUNK states per gather, and stops
    once the inner box is covered: the reachable set only grows, so the
    verdict is the full search's.
    """
    kernel = kernel_of(model)
    S0 = kernel.S0
    probe = kernel.check_state(probe_state or ((0, 0, 0, 0), 0))
    L, side = radius + 1, 4 * radius + 2
    shape = (side,) * 4 + (S0,)
    if side ** 4 * S0 > PROBE_STATES:
        raise ProbeBoxTooLarge(f"probe radius {radius} needs a box of {side}^4 x {S0} = "
                               f"{side ** 4 * S0:,} states, over the budget of {PROBE_STATES:,}")
    if any(v >= L for v in probe[0]):
        return UNKNOWN
    # predecessors as CSR over keys (block number, j2): j - j2 of each move
    # j -> j2; `first` maps (z, sig), z-major, to a block's first key
    for sig in np.ndindex(3, 3, 3, 3):
        kernel.q_blocks(sig)
    zs, blocks = [*kernel._numbers], len(kernel._edges)
    Z, outside = np.array(zs), len(zs) * 81
    # a predecessor outside the box sums to `outside` or more: block 0 there
    first = np.zeros(4 * outside + 1, dtype=np.int32)
    first[:outside] = S0 * np.array([kernel._numbers[z] for z in zs]).ravel()
    j, keys = (np.concatenate(e) for e in zip(*kernel._edges))
    dj = (j - keys).astype(np.int32)
    keys += S0 * np.repeat(np.arange(blocks), [len(e) for e, _ in kernel._edges])
    indptr = np.searchsorted(keys, np.arange(blocks * S0 + 1)).astype(np.int32)
    # per axis, coordinate y and z: the weight in `first` of y - z, or "outside"
    x = np.arange(side)[:, None, None] - Z
    w = np.minimum(x, 2) * [27, 9, 3, 1] + np.arange(len(zs))[:, None] * [81, 0, 0, 0]
    axes = np.where((x >= 0) & (x < side), w, outside).astype(np.int32).transpose(2, 0, 1)
    step = (Z @ side ** np.arange(3, -1, -1) * S0).astype(np.int32)
    seen = np.zeros(side ** 4 * S0, dtype=bool)
    inner = seen.reshape(shape)[(slice(0, L),) * 4]
    frontier = np.array([np.ravel_multi_index(probe[0] + (probe[1],), shape)], dtype=np.int32)
    seen[frontier] = True
    while frontier.size and not inner.all():
        layer = []
        for chunk in np.split(frontier, range(PROBE_CHUNK, frontier.size, PROBE_CHUNK)):
            *y, j2 = np.unravel_index(chunk, shape)
            key = first.take(sum(a.take(c, axis=0) for a, c in zip(axes, y))) + j2[:, None]
            start, n = indptr.take(key).ravel(), indptr.take(key + 1).ravel()
            n -= start
            start -= np.cumsum(n, dtype=np.int32) - n
            # the chunk's predecessors: their places in dj, then their states
            found = dj.take(np.repeat(start, n) + np.arange(n.sum(), dtype=np.int32))
            found += np.repeat((chunk[:, None] - step).ravel(), n)
            found = np.sort(found.compress(~seen.take(found)))
            found = found.compress(np.diff(found, prepend=-1) != 0)
            seen[found] = True
            layer.append(found)
        frontier = np.concatenate(layer)
    return CONFIRMED if inner.all() else UNKNOWN


def write_generator_triplets(model: NetworkModel, radius, path):
    """Debug export: the generator of the reflecting truncation to
    {0..radius}^4 (see `lattice_triplets`), whose rows sum to zero, one
    "row col rate" line per nonzero, row-major order."""
    kernel = kernel_of(model)
    L = radius + 1
    rows, cols, data, _ = lattice_triplets(kernel.q_blocks, (L,) * 4, kernel.S0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# truncated generator, box {L}^4 x {kernel.S0}\n")
        fh.writelines(f"{r} {c} {float(v)!r}\n"
                      for r, c, v in zip(rows, cols, data) if abs(v) > RATE_TOL)
