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
indexed by (x1, x4) and station-2 matrices by (x3, x2).  Each block is
held as sparse canonical COO triplets, built from its factors' nonzeros:
at S0 = 1,024 the blocks are 0.07% dense.

The induced chains are solved on Q itself: the paper's uniformization
I + Q/nu has exactly Q's stationary vectors, and serves only to show that
the discrete chain and the CTMC are positive recurrent together.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import EmptySubset, UnsupportedSubset
from .service_disciplines import NetworkModel

SUBSET_ALL = frozenset((1, 2, 3, 4))

# a rate at or below this is absent: no probe edge or move
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


def canonical_triplets(keys, rates, n):
    """The n x n sum of `rates` at keys row * n + col as canonical, read-only
    COO triplets (rows, cols, rates): row-major, exact zeros left out, and
    the entries at one key summed in the order given from 0.0, as dense
    addition of the terms does (a stable sort keeps that order)."""
    order = keys.argsort(kind="stable")
    keys, rates = keys[order], rates[order]
    new = keys[1:] != keys[:-1]
    if not new.all():
        rates = np.bincount(np.concatenate(([0], new.cumsum())), rates)
        keys = keys[np.concatenate(([True], new))]
    keep = rates != 0.0
    out = (*np.divmod(keys[keep], n), rates[keep])
    for a in out:
        a.flags.writeable = False
    return out


def _pattern(sizes, nonzero, products, n):
    """The pattern of n x n blocks that sum Kronecker products, for `_refill`.
    Row t of `products` is product t's block, then its factors' numbers:
    square matrices of `sizes`, whose raveled entries, concatenated, are
    the value vector, nonzero where `nonzero` is.  Returns the blocks'
    entries as canonical (rows, cols), block-major, and each block's bounds
    in them; per term, in product order, its factors' places in the value
    vector and its entry, as int32."""
    sizes = np.asarray(sizes)
    nz = np.flatnonzero(nonzero)
    ends = np.cumsum(sizes * sizes)
    f = np.searchsorted(ends, nz, side="right")
    i, j = np.divmod(nz - ends[f] + sizes[f] ** 2, sizes[f])
    count = np.bincount(f, minlength=len(sizes))
    block, factors = products[:, 0], products[:, 1:]
    per = count[factors].prod(axis=1)
    term = np.repeat(np.arange(len(products)), per)
    factors = factors[term].T
    # per term, its factors' nonzeros (the last factor's fastest), and then,
    # by mixed radix, its row after its block number, and its column
    rest, at = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per), np.empty_like(factors)
    for w in reversed(range(len(at))):
        rest, at[w] = np.divmod(rest, count[factors[w]])
    at += (np.cumsum(count) - count)[factors]
    rows, cols = block[term], 0
    for fs, a in zip(factors, at):
        rows, cols = rows * sizes[fs] + i[a], cols * sizes[fs] + j[a]
    keys, entry = np.unique(rows * n + cols, return_inverse=True)
    bounds = np.searchsorted(keys, np.arange(block.max() + 2) * n * n)
    gather, entry = nz[at].astype(np.int32), entry.astype(np.int32)
    return np.divmod(keys % (n * n), n), bounds, gather, entry


def _refill(pattern, values):
    """The blocks of `pattern` with the value vector `values`, as canonical
    read-only triplets: a term multiplies its factors ((1.0*a)*b)*c*d, as
    `reduce(np.kron, factors)` does, and an entry sums its terms in product
    order from 0.0, less exact zeros.  Also returns every entry's sum."""
    (rows, cols), bounds, gather, entry = pattern
    rates = values[gather[0]]
    for g in gather[1:]:
        rates = rates * values[g]
    sums = np.bincount(entry, rates, minlength=len(rows))
    keep = sums != 0.0
    out = rows[keep], cols[keep], sums[keep]
    for a in out:
        a.flags.writeable = False
    at = np.concatenate(([0], np.cumsum(keep)))[bounds].tolist()
    return [tuple(a[s:e] for a in out) for s, e in zip(at, at[1:])], sums


def _kron_sum(terms, n):
    """The n x n sum of the Kronecker products `terms`, in term order, as
    canonical triplets, built as `BlockKernel` builds a block.  A term's
    factors are square matrices, or ints for identities of that size, and
    every term has as many."""
    mats = [np.eye(f) if isinstance(f, int) else f for term in terms for f in term]
    values = np.concatenate([np.ravel(m) for m in mats])
    products = np.c_[np.zeros(len(terms), dtype=int), np.arange(len(mats)).reshape(len(terms), -1)]
    return _refill(_pattern([len(m) for m in mats], values != 0, products, n), values)[0][0]


def _moves_of(z, block):
    """The moves of `block` at displacement z, as triplets (j, j2, rate):
    its rates above RATE_TOL, but no no-move diagonal."""
    rows, cols, vals = block
    on = vals > RATE_TOL
    if not any(z):
        on &= rows != cols
    return rows[on], cols[on], vals[on]


# the model matrix a block factor "kind key..." names
_FACTORS = {
    "D1": lambda m: m.map1.D, "C1": lambda m: m.map1.C, "Ia1": lambda m: np.eye(m.map1.dim),
    "D3": lambda m: m.map3.D, "C3": lambda m: m.map3.C, "Ia3": lambda m: np.eye(m.map3.dim),
    "t1": lambda m, k: m.msp1.t[k], "u1": lambda m, k: m.msp1.u[k],
    "t2": lambda m, k: m.msp2.t[k], "u2": lambda m, k: m.msp2.u[k],
    "Im1": lambda m: np.eye(m.msp1.n), "Im2": lambda m: np.eye(m.msp2.n),
    "out": lambda m, k: (1.0 - m.p) * m.msp2.t[k],  # class 2 leaves
    "fb": lambda m, k, k2: m.p * (m.msp2.t[k] @ m.msp2.u[k2]),  # or feeds back as class 3
}


@lru_cache(maxsize=1)
def _structure():
    """The kernel's block structure, the same for every model: the number
    k >= 1 of the block of each displacement (`DISPLACEMENTS` row) and
    regime (flat index column; 0: none), keyed on its products; the split
    `_FACTORS` names; and `_pattern`'s products, factors by name number."""
    numbers, blocks = np.zeros((len(DISPLACEMENTS), 81), dtype=int), {}
    for flat, sig in enumerate(SIGNATURES):
        g1, g2, g3, g4 = ("0" if c == 0 else "+" for c in sig)
        c1, c2, c3, c4 = ("1*" if c == 1 else "2*" for c in sig)
        g2post = "0" if sig[1] == 1 else "+"
        for z, products in (
                ((1, 0, 0, 0), [("D1", "Ia3", f"u1 {g1}*{g4}", "Im2")]),
                ((0, 0, 1, 0), [("Ia1", "D3", "Im1", f"u2 {g3}*{g2}")]),
                ((-1, 1, 0, 0), sig[0] and [("Ia1", "Ia3", f"t1 {c1}{g4}", f"u2 {g3}{g2}*")]),
                ((0, -1, 0, 0), sig[1] and [("Ia1", "Ia3", "Im1", f"out {g3}{c2}")]),
                ((0, -1, 1, 0), sig[1] and [("Ia1", "Ia3", "Im1", f"fb {g3}{c2} {g3}*{g2post}")]),
                ((0, 0, -1, 1), sig[2] and [("Ia1", "Ia3", f"u1 {g1}{g4}*", f"t2 {c3}{g2}")]),
                ((0, 0, 0, -1), sig[3] and [("Ia1", "Ia3", f"t1 {g1}{c4}", "Im2")]),
                ((0, 0, 0, 0), [("C1", "Ia3", "Im1", "Im2"), ("Ia1", "C3", "Im1", "Im2"),
                                ("Ia1", "Ia3", f"t1 {g1}{g4}", "Im2"),
                                ("Ia1", "Ia3", "Im1", f"t2 {g3}{g2}")])):
            if products:
                k = blocks.setdefault(tuple(products), len(blocks) + 1)
                numbers[DISPLACEMENTS.index(z), flat] = k
    names = {f: i for i, f in enumerate(dict.fromkeys(f for ps in blocks for p in ps for f in p))}
    products = [(k, *map(names.get, p)) for ps, k in blocks.items() for p in ps]
    return numbers, [f.split() for f in names], np.array(products)


@lru_cache(maxsize=1)
def _kernel_pattern(n, sizes, nonzero):
    """The `_pattern` of kernel blocks whose factors have these sizes and
    nonzeros (bool bytes), with each entry's block and whether it is a
    no-move diagonal: the last one is kept, for a rate sweep's points."""
    numbers, _, products = _structure()
    pattern = _pattern(sizes, np.frombuffer(nonzero, dtype=bool), products, n)
    (rows, cols), bounds = pattern[:2]
    block = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    return pattern, block, np.isin(block, numbers[-1]) & (rows == cols)


class BlockKernel:
    """Signature-indexed transition blocks for one model: the model's one
    rate table, read by the probe, the induced chains and the simulator.

    A block is held in one form, the canonical triplets of an S0 x S0
    matrix (`canonical_triplets`).  The k-th distinct block (k >= 1),
    `_blocks[k]`, serves every signature that `_structure` gives k.  As
    sparse direct solvers split symbolic from numeric work, a pattern
    (`_kernel_pattern`) is kept while the factors' nonzeros hold, and each
    kernel refills every block's values from it (`_refill`).  The move
    table derives from the blocks.  The caches are not locked: a kernel
    belongs to one thread (`sweep --jobs` runs its points in processes).
    """

    def __init__(self, model: NetworkModel):
        self.model = model
        self.dims = (model.map1.dim, model.map3.dim, model.msp1.n, model.msp2.n)
        self.S0 = int(np.prod(self.dims))
        mats = [_FACTORS[kind](model, *keys) for kind, *keys in _structure()[1]]
        values = np.concatenate([f.ravel() for f in mats])
        self.pattern_key = self.S0, tuple(map(len, mats)), (values != 0).tobytes()
        pattern, _, still = _kernel_pattern(*self.pattern_key)
        self._blocks, sums = _refill(pattern, values)
        # per pattern entry, whether it is a move (`_moves_of`): the probe's edges
        self.move_set = ((sums > RATE_TOL) & ~still).tobytes()
        self._q_cache = {}
        self.regimes = [None] * 81
        self.move_dest, self.move_z, self._move_rows = [], [], np.empty((0, 3))

    # -- continuous-time blocks ------------------------------------------

    def q_blocks(self, sig):
        """Regime `sig`'s blocks, as {z: triplets}, in `DISPLACEMENTS` order."""
        flat = 27 * sig[0] + 9 * sig[1] + 3 * sig[2] + sig[3]
        hit = self._q_cache.get(flat)
        if hit is None:
            hit = self._q_cache[flat] = {z: self._blocks[k] for z, k in zip(
                DISPLACEMENTS, _structure()[0][:, flat].tolist()) if k}
        return hit

    def move_edges(self, sig):
        """Per displacement, the `_moves_of` regime `sig`'s blocks."""
        return {z: _moves_of(z, B) for z, B in self.q_blocks(sig).items()}

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
            edges, first = self.move_edges(sig), len(self.move_dest)
            j, dest, rates = (np.concatenate(e) for e in zip(*edges.values()))
            order = np.argsort(j, kind="stable")
            dest, rates = dest[order], rates[order]
            zn = np.concatenate([np.full(len(jj), DISPLACEMENTS.index(z))
                                 for z, (jj, _, _) in edges.items()])[order]
            counts = np.bincount(j, minlength=self.S0)
            starts = np.cumsum(counts) - counts
            # each j's rates as a zero-padded row, whose cumsum adds them in
            # order, as a cumsum of j's rates alone does
            padded = np.zeros((self.S0, counts.max(initial=0)))
            padded[j[order], np.arange(len(j)) - np.repeat(starts, counts)] = rates
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


# -- lattice assembly --------------------------------------------------------
#
# STRATEGY: a truncated chain on {0..L_1-1} x ... x {0..L_d-1} x S0
# repeats each (signature, displacement) block over the cells of its
# signature: a nonzero (bi, bj) of the block at source cell s with target
# cell t is the entry (s*S0 + bi, t*S0 + bj).  This index arithmetic writes
# every entry into one set of canonical COO triplets, which the face
# solvers read as they are: no sparse matrix class.
# Out-of-box moves fold onto the boundary (reflecting truncation).

def signature_ranges(sig_component, L):
    """The levels 0..L-1 of one coordinate whose signature entry is
    `sig_component` (0, 1, or 2 for two or more)."""
    if sig_component == 0:
        return np.array([0])
    if sig_component == 1:
        return np.array([1]) if L > 1 else np.array([], dtype=int)
    return np.arange(2, L)


@lru_cache(maxsize=256)
def _cell_moves(shape, sig, z):
    """The cells of signature `sig` in the box `shape`, in C order, and the
    cells each reaches by z, clipped to the box, as flat indices: faces
    assemble the same few boxes again and again."""
    axes = [signature_ranges(c, L) for c, L in zip(sig, shape)]
    grids = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    return np.ravel_multi_index(grids, shape), np.ravel_multi_index(
        [np.clip(g + dz, 0, L - 1) for g, dz, L in zip(grids, z, shape)], shape)


def lattice_triplets(block_fn, shape, S0):
    """The chain truncated to the box `shape`, one level per free
    coordinate, as canonical COO triplets (rows, cols, data, n): sorted
    by row, then column, with no duplicates.

    block_fn(sig_free) -> dict mapping z_free to an S0 x S0 block as
    canonical triplets (`BlockKernel.q_blocks`).  State
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
        if any(c >= L for c, L in zip(sig, shape)):
            continue  # no cell has the signature
        for z, (bi, bj, B) in block_fn(sig).items():
            cells, tgt = _cell_moves(tuple(shape), sig, z)
            keys.append(np.add.outer(cells * S0, bi).ravel() * n
                        + np.add.outer(tgt * S0, bj).ravel())
            data.append(np.tile(B, cells.size))
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


def check_semi_irreducible(model: NetworkModel, probe_state=0):
    """Whether every state of Z_+^4 x S0 reaches the probe state, level 0
    in background `probe_state` (as `BlockKernel.background_index` takes
    it): (CONFIRMED, None), a proof, or (UNKNOWN, reason).  Two finite
    checks make the proof, by induction on w = 4 x1 + 3 x2 + 2 x3 + x4,
    which every completion (a `DISPLACEMENTS` row with a negative entry)
    lowers and every phase move (z = 0) keeps:
      - the drain lemma: at each nonzero signature, every background state
        reaches by phase moves one with a completion move, so every state
        drains to level 0;
      - the probe: a reverse search from the probe state over the move
        edges of the box {0, 1}^4 x S0 reaches all of level 0.
    The reason names the first signature and background state failing the
    lemma, else the first level-0 state the search missed.  Both checks
    are kept while the kernel's pattern and move set hold: across a rate
    sweep, as a rule."""
    kernel = kernel_of(model)
    miss = _probe_search(kernel.pattern_key, kernel.move_set,
                         kernel.background_index(probe_state))
    if miss is None:
        return CONFIRMED, None
    sig, j = miss
    state = f"background state {j} {tuple(map(int, np.unravel_index(j, kernel.dims)))}"
    if sig is None:
        return UNKNOWN, f"the probe state is not reached from level 0 in {state}"
    return UNKNOWN, (f"the drain lemma fails at signature {sig}: {state} reaches no "
                     "completion by phase moves")


@lru_cache(maxsize=1)
def _probe_search(pattern_key, move_set, probe):
    """`check_semi_irreducible`'s checks on a kernel's `pattern_key` and
    `move_set`: None when both hold, else the (signature, j) failing the
    lemma, or (None, j) for the level-0 state j the search missed."""
    pattern, block, _ = _kernel_pattern(*pattern_key)
    (rows, cols), bounds = pattern[:2]
    S0, numbers = pattern_key[0], _structure()[0]
    on = np.frombuffer(move_set, dtype=bool)
    j, j2, block = rows[on], cols[on], block[on]
    # the lemma: per signature, the states with a completion move, grown
    # back over the phase moves of its z = 0 block until they stop growing
    moving = np.zeros((len(bounds) - 1, S0), dtype=bool)
    moving[block, j] = True
    done = moving[numbers[(np.array(DISPLACEMENTS) < 0).any(axis=1)]].any(axis=0)
    for b in set(numbers[-1].tolist()):
        sigs, edge = numbers[-1] == b, block == b
        src, dst, drains = j[edge], j2[edge], done[sigs]
        while (grow := drains[:, dst] & ~drains[:, src]).any():
            at, e = np.nonzero(grow)
            drains[at, src[e]] = True
        done[sigs] = drains
    fail = np.argwhere(~done[1:])
    if fail.size:
        return SIGNATURES[fail[0, 0] + 1], int(fail[0, 1])
    # the probe, in the box {0, 1}^4 x S0: predecessors as CSR over keys
    # (block number, j2): j - j2 of each move j -> j2; `first` maps (z,
    # sig), z-major, to a block's first key
    Z, outside, blocks = np.array(DISPLACEMENTS), len(DISPLACEMENTS) * 81, len(bounds) - 1
    # a predecessor outside the box sums to `outside` or more: block 0 there
    first = np.zeros(4 * outside + 1, dtype=np.int32)
    first[:outside] = S0 * numbers.ravel()
    keys = j2 + S0 * block
    order = np.argsort(keys, kind="stable")
    keys, dj = keys[order], (j - j2)[order].astype(np.int32)
    indptr = np.searchsorted(keys, np.arange(blocks * S0 + 1)).astype(np.int32)
    # per axis, coordinate y and z: the weight in `first` of y - z, or "outside"
    x = np.arange(2)[:, None, None] - Z
    w = x * [27, 9, 3, 1] + np.arange(len(Z))[:, None] * [81, 0, 0, 0]
    axes = np.where((x >= 0) & (x < 2), w, outside).astype(np.int32).transpose(2, 0, 1)
    step = (Z @ [8, 4, 2, 1] * S0).astype(np.int32)
    seen = np.zeros(16 * S0, dtype=bool)
    level0 = seen[:S0]
    frontier = np.array([probe], dtype=np.int32)
    seen[frontier] = True
    # a layer at a time, in one gather: the box bounds a layer to 16 S0 states
    while frontier.size and not level0.all():
        *y, j2 = np.unravel_index(frontier, (2, 2, 2, 2, S0))
        key = first.take(sum(a.take(c, axis=0) for a, c in zip(axes, y))) + j2[:, None]
        start, n = indptr.take(key).ravel(), indptr.take(key + 1).ravel()
        n -= start
        start -= np.cumsum(n, dtype=np.int32) - n
        # the layer's predecessors: their places in dj, then their states
        found = dj.take(np.repeat(start, n) + np.arange(n.sum(), dtype=np.int32))
        found += np.repeat((frontier[:, None] - step).ravel(), n)
        found = np.sort(found.compress(~seen.take(found)))
        frontier = found.compress(np.diff(found, prepend=-1) != 0)
        seen[frontier] = True
    return None if level0.all() else (None, int(np.argmin(level0)))
