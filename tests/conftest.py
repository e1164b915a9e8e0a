"""Shared model builders for the test suite."""

import sys

import numpy as np
import pytest
import scipy.sparse as sp

from netdrift import (
    BlockKernel,
    build_network,
    exponential_ph,
    kernel_of,
    poisson_map,
    regime_signature,
)
from netdrift.generator import lattice_triplets


def exp_model(discipline="non_preemptive", K=None, lam1=0.8, lam3=0.4,
              p=0.3, mus=(4.0, 2.4, 4.2, 2.2)):
    """Poisson/exponential network with the given discipline."""
    phs = [exponential_ph(m) for m in mus]
    return build_network(poisson_map(lam1), poisson_map(lam3),
                         phs[0], phs[1], phs[2], phs[3], p, discipline, K=K)


def lattice_csr(block_fn, shape, S0):
    """The box `shape`'s truncated generator from `lattice_triplets`, as
    canonical CSR."""
    rows, cols, data, n = lattice_triplets(block_fn, shape, S0)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def dense(block, n):
    """A kernel block's triplets (rows, cols, rates) scattered into an
    n x n array."""
    out = np.zeros((n, n))
    rows, cols, rates = block
    out[rows, cols] = rates
    return out


def dense_block(model, x, xp):
    """The rates of the move x -> xp as a dense S0 x S0 array: zero when no
    event makes that move."""
    kernel, z = kernel_of(model), tuple(int(b) - int(a) for a, b in zip(x, xp))
    none = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    return dense(kernel.q_blocks(regime_signature(x)).get(z, none), kernel.S0)


def triplets(B):
    """The nonzeros of the dense block B as triplets (rows, cols, rates),
    row-major: the form of a kernel block."""
    rows, cols = np.nonzero(B)
    return rows, cols, B[rows, cols]


def symmetric_limited_model(K, lam=1.0, mu_single=5.0, mu_batch=1.8):
    """The (1,K) alternating-service configuration with matched stations."""
    return exp_model("limited", K=K, lam1=lam, lam3=lam, p=0.0,
                     mus=(mu_single, mu_batch, mu_single, mu_batch))


def priority_sample(rng):
    """One random parameter set for the priority disciplines.

    Satisfies the nominal condition, mu1 > mu2, mu3 > mu4 and
    lam1, lam3 + p*mu2 > 0, with the virtual-station load rho2 + rho4
    spread across both sides of 1.
    """
    while True:
        lam1 = rng.uniform(0.2, 1.5)
        mu2 = lam1 + rng.uniform(0.2, 2.0)
        mu1 = mu2 + rng.uniform(0.5, 3.0)
        lam3 = rng.uniform(0.05, 1.2)
        p = rng.uniform(0.0, 0.95)
        rho2 = lam1 / mu2
        target = rng.uniform(0.55, 1.45)
        if target <= rho2 + 0.02:
            continue
        mu4 = (p * lam1 + lam3) / (target - rho2)
        mu3 = mu4 + rng.uniform(0.3, 2.5)
        rho = np.array([lam1 / mu1, rho2, (p * lam1 + lam3) / mu3,
                        (p * lam1 + lam3) / mu4])
        if rho[0] + rho[3] >= 0.98 or rho[1] + rho[2] >= 0.98:
            continue
        if abs(rho[1] + rho[3] - 1.0) <= 1e-4:
            continue
        return dict(lam1=lam1, lam3=lam3, p=p, mus=(mu1, mu2, mu3, mu4),
                    rho=rho)


@pytest.fixture
def np_model():
    return exp_model()


@pytest.fixture
def kernel_builds(monkeypatch):
    """The BlockKernel instances constructed while the test runs."""
    built = []
    init = BlockKernel.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockKernel, "__init__", counting)
    return built


def face_solves_only(fake, real):
    """A stand-in for `real` that calls `fake` when the face solver
    (`netdrift.induced_chains`) calls it and `real` for every other
    caller, such as the phase solves of the model build."""
    def patched(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__")
        return (fake if caller == "netdrift.induced_chains" else real)(*args, **kwargs)
    return patched
