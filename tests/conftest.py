"""Shared helpers for building randomized valid strategies and tables."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

from paraself.bell import _conditioned, _copy_kernels
from paraself.qcore import DensityMatrix, Povm
from paraself.strategies import SingleCopyStrategy

# Property tests draw the same examples on every run and write no example
# database into the working directory.
settings.register_profile("paraself", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("paraself")


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projective_povm(d: int, rng: np.random.Generator) -> Povm:
    """Rank-one projective POVM with d outcomes from a Haar-random basis."""
    u = haar_unitary(d, rng)
    return Povm(tuple(np.outer(u[:, k], u[:, k].conj()) for k in range(d)))


def random_general_povm(d: int, o: int, rng: np.random.Generator) -> Povm:
    """Generic o-outcome POVM: random PSD pieces whitened to sum to I."""
    pieces = []
    for _ in range(o):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        pieces.append(a @ a.conj().T)
    total = sum(pieces)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Povm(tuple(inv_sqrt @ g @ inv_sqrt for g in pieces))


def random_state(d_a: int, d_b: int, rng: np.random.Generator,
                 mix: float = 0.15) -> DensityMatrix:
    """Random pure state blended with white noise; the blend keeps every
    rank-one outcome probability strictly positive."""
    d = d_a * d_b
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    rho = (1.0 - mix) * np.outer(psi, psi.conj()) + mix * np.eye(d) / d
    return DensityMatrix(rho)


def random_strategy(rng: np.random.Generator, m: int | None = None,
                    o: int | None = None, projective: bool = True) -> SingleCopyStrategy:
    m = int(rng.integers(2, 4)) if m is None else m
    o = int(rng.integers(2, 4)) if o is None else o
    if projective:
        d = o
        alice = tuple(random_projective_povm(d, rng) for _ in range(m))
        bob = tuple(random_projective_povm(d, rng) for _ in range(m))
    else:
        d = int(rng.integers(2, 4))
        alice = tuple(random_general_povm(d, o, rng) for _ in range(m))
        bob = tuple(random_general_povm(d, o, rng) for _ in range(m))
    state = random_state(alice[0].dim, bob[0].dim, rng)
    return SingleCopyStrategy(state, alice, bob, m=m, o=o, label="random")


def deterministic_table_probs(m: int, o: int, alice, bob) -> np.ndarray:
    """Explicit table of a local deterministic assignment (test-side oracle)."""
    probs = np.zeros((m, m, o, o))
    for x, y in itertools.product(range(m), range(m)):
        probs[x, y, alice[x], bob[y]] = 1.0
    return probs


def kernels(tables):
    """``(cond, prefix_prob)`` of every copy of a stack in turn, from the walk over
    every copy, conditioned by the package and indexed ``[k, x, y, row_a, row_b]``
    (``cond`` then ``[a_i, b_i]``): a per-copy row ``(high, low)`` is one index, and
    rows of probability 1 get ``prefix_prob`` ones."""
    for joint, prefix_prob in _copy_kernels(tables):
        rows = joint.shape[3:-2]
        side_a, side_b = math.prod(rows[:len(rows) // 2]), math.prod(rows[len(rows) // 2:])
        shape = joint.shape[:3] + (side_a, side_b) + joint.shape[-2:]
        cond = _conditioned(joint, prefix_prob, np.zeros_like(joint)).reshape(shape)
        yield cond, np.ones(shape[:5]) if prefix_prob is None else prefix_prob


def copy_kernel(table, i: int) -> tuple:
    """``(cond, prefix_prob)`` of copy ``i`` of one table from :func:`kernels`,
    indexed ``[x, y, prefix_a, prefix_b]`` (``cond`` then ``[a_i, b_i]``)."""
    cond, prefix_prob = next(itertools.islice(kernels([table]), i - 1, None))
    return cond[0], prefix_prob[0]


def conditional_values(table, expr, i: int) -> np.ndarray:
    """``values[prefix_a, prefix_b]``: one ``fsum`` of the expression times
    each conditional distribution of copy ``i > 1`` from the kernel (zero on
    a prefix at or below the positivity threshold)."""
    cond, _ = copy_kernel(table, i)
    low = cond.shape[2]
    return np.array([[math.fsum((expr.coeffs * cond[:, :, pa, pb]).ravel())
                      for pb in range(low)] for pa in range(low)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
