"""Parity of the rank-accumulation pairwise statistics with the old dense
``(L, N, N)`` einsum formulation (which blew up memory at large ``L``)."""

import numpy as np
import pytest

from repro.rank.kendall import stance_marginals
from repro.tpo.space import OrderingSpace


def random_space(seed: int, n: int = 8, k: int = 4, count: int = 40):
    rng = np.random.default_rng(seed)
    paths = np.unique(
        np.array([rng.permutation(n)[:k] for _ in range(count)]), axis=0
    )
    return OrderingSpace(paths, rng.random(paths.shape[0]) + 1e-3, n)


def dense_pairwise_preference(space: OrderingSpace) -> np.ndarray:
    """The seed's einsum implementation, kept as the reference."""
    pos = space.positions().astype(np.int64)
    p = space.probabilities
    less = pos[:, :, None] < pos[:, None, :]
    equal = pos[:, :, None] == pos[:, None, :]
    w = np.einsum("l,lij->ij", p, less.astype(float))
    w += 0.5 * np.einsum("l,lij->ij", p, equal.astype(float))
    np.fill_diagonal(w, 0.0)
    return w


def dense_stance_marginals(space: OrderingSpace):
    pos = space.positions().astype(np.int64)
    p = space.probabilities
    less = pos[:, :, None] < pos[:, None, :]
    greater = pos[:, :, None] > pos[:, None, :]
    p_plus = np.einsum("l,lij->ij", p, less.astype(float))
    p_minus = np.einsum("l,lij->ij", p, greater.astype(float))
    p_zero = np.clip(1.0 - p_plus - p_minus, 0.0, 1.0)
    for m in (p_plus, p_minus, p_zero):
        np.fill_diagonal(m, 0.0)
    return p_plus, p_minus, p_zero


@pytest.mark.parametrize("seed", range(6))
def test_pairwise_preference_matches_dense_reference(seed):
    space = random_space(seed)
    np.testing.assert_allclose(
        space.pairwise_preference(),
        dense_pairwise_preference(space),
        rtol=0.0,
        atol=1e-12,
    )


@pytest.mark.parametrize("seed", range(6))
def test_stance_marginals_match_dense_reference(seed):
    space = random_space(seed)
    for ours, reference in zip(
        stance_marginals(space), dense_stance_marginals(space)
    , strict=True):
        np.testing.assert_allclose(ours, reference, rtol=0.0, atol=1e-12)


def test_pairwise_preference_complementarity():
    space = random_space(99)
    w = space.pairwise_preference()
    off_diagonal = ~np.eye(space.n_tuples, dtype=bool)
    np.testing.assert_allclose(
        (w + w.T)[off_diagonal], 1.0, rtol=0.0, atol=1e-12
    )


@pytest.mark.parametrize("seed", range(4))
def test_stance_matrix_matches_agreement_codes(seed):
    space = random_space(seed, n=6, k=3, count=20)
    pairs = [
        (i, j)
        for i in range(space.n_tuples)
        for j in range(space.n_tuples)
        if i != j
    ]
    i_indices = [i for i, _ in pairs]
    j_indices = [j for _, j in pairs]
    stances = space.stance_matrix(i_indices, j_indices)
    assert stances.shape == (space.size, len(pairs))
    assert stances.dtype == np.int8
    for column, (i, j) in enumerate(pairs):
        np.testing.assert_array_equal(
            stances[:, column], space.agreement_codes(i, j)
        )


@pytest.mark.parametrize("seed", range(4))
def test_weighted_order_masses_are_exact_path_counts(seed):
    """0/1 path weights turn both matrices into integer path counts."""
    space = random_space(seed, n=7, k=3, count=30)
    weights = (np.random.default_rng(seed).random(space.size) < 0.6).astype(float)
    less, both_absent = space.pairwise_order_masses(weights=weights)
    pos = space.positions()
    live = weights > 0
    above = (pos[live, :, None] < pos[live, None, :]).sum(axis=0)
    absent = pos[live] == space.depth
    neither = (absent[:, :, None] & absent[:, None, :]).sum(axis=0)
    np.fill_diagonal(neither, 0)
    np.testing.assert_array_equal(less, above)
    np.testing.assert_array_equal(both_absent, neither)
