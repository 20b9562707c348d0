"""Whole-matrix candidate pool and stance kernel against their oracles.

``relevant_questions`` / ``informative_questions`` compute ``Q_K`` from
one pairwise count pass; the per-pair oracle is ``overlaps`` plus
``is_settled`` walked over the present tuples.  Both must return the same
list, order included, on every kind of space a session can hold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions.point import PointMass
from repro.distributions.uniform import Uniform
from repro.questions.candidates import (
    informative_questions,
    is_settled,
    relevant_questions,
)
from repro.questions.model import Question
from repro.tpo.builders import GridBuilder
from repro.tpo.space import DegenerateSpaceError, OrderingSpace
from repro.workloads.synthetic import mixed_certainty, uniform_intervals


def oracle_questions(space, distributions=None):
    """The per-pair reference: ``overlaps`` then ``is_settled``."""
    present = space.present_tuples()
    questions = []
    for a in range(len(present)):
        for b in range(a + 1, len(present)):
            i, j = int(present[a]), int(present[b])
            if distributions is not None and not distributions[i].overlaps(
                distributions[j]
            ):
                continue
            if is_settled(space, i, j):
                continue
            questions.append(Question(i, j))
    return questions


def assert_pool_parity(space, distributions=None):
    expected = oracle_questions(space, distributions)
    assert relevant_questions(space, distributions) == expected
    if distributions is None:
        assert informative_questions(space) == expected


# Endpoints on a coarse grid, so touching supports (one interval's upper
# equal to another's lower) and point masses sitting on an endpoint occur
# often.
_GRID = st.integers(min_value=0, max_value=6).map(lambda v: v / 4.0)


@st.composite
def distribution(draw):
    lower = draw(_GRID)
    width = draw(st.integers(min_value=0, max_value=3)) / 4.0
    if width == 0.0:
        return PointMass(lower)
    return Uniform(lower, lower + width)


@st.composite
def random_spaces(draw):
    """Random prefix spaces with zero-mass paths and never-present tuples.

    ``absent`` extra tuples enlarge the universe without appearing in any
    path; about a third of the paths carry probability zero.
    """
    used = draw(st.integers(min_value=2, max_value=6))
    absent = draw(st.integers(min_value=0, max_value=2))
    k = draw(st.integers(min_value=1, max_value=used))
    count = draw(st.integers(min_value=1, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    paths = np.unique(
        np.array([rng.permutation(used)[:k] for _ in range(count)]), axis=0
    )
    probs = rng.random(paths.shape[0]) + 1e-3
    probs[rng.random(paths.shape[0]) < 0.35] = 0.0
    if probs.sum() <= 0.0:
        probs[0] = 1.0
    return OrderingSpace(paths, probs, used + absent)


@st.composite
def built_spaces(draw):
    """Grid-built TPO spaces, exact or beam-approximate, with their pdfs."""
    n = draw(st.integers(min_value=3, max_value=7))
    k = draw(st.integers(min_value=1, max_value=min(n, 4)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    mixed = draw(st.booleans())
    epsilon = draw(st.sampled_from([0.0, 0.02, 0.1]))
    width = draw(st.sampled_from([0.2, 0.4]))
    if mixed:
        distributions = mixed_certainty(n, width=width, rng=seed)
    else:
        distributions = uniform_intervals(n, width=width, rng=seed)
    builder = GridBuilder(resolution=96, beam_epsilon=epsilon)
    space = builder.build(distributions, k).to_space()
    return space, distributions


def _updates(space, i, j, holds):
    """Spaces a session reaches from ``space`` after answering ``(i, j)``."""
    keep = space.agreement_codes(i, j) != (-1 if holds else 1)
    updates = [
        lambda: space.restrict(keep),
        lambda: space.condition(i, j, holds),
        lambda: space.reweight_by_answer(i, j, holds, 0.8),
        lambda: space.reweight_by_answer(i, j, holds, 1.0),
    ]
    children = []
    for update in updates:
        try:
            children.append(update())
        except DegenerateSpaceError:
            pass
    return children


@given(random_spaces(), st.lists(distribution(), min_size=8, max_size=8))
@settings(max_examples=150, deadline=None)
def test_random_spaces_match_oracle(space, distributions):
    assert_pool_parity(space)
    assert_pool_parity(space, distributions[: space.n_tuples])


@given(built_spaces())
@settings(max_examples=40, deadline=None)
def test_built_spaces_match_oracle(case):
    space, distributions = case
    assert_pool_parity(space)
    assert_pool_parity(space, distributions)


@given(built_spaces(), st.integers(min_value=0), st.booleans())
@settings(max_examples=40, deadline=None)
def test_updated_spaces_match_oracle(case, pick, holds):
    space, distributions = case
    pairs = oracle_questions(space) or [Question(0, 1)]
    question = pairs[pick % len(pairs)]
    for child in _updates(space, question.i, question.j, holds):
        assert_pool_parity(child)
        assert_pool_parity(child, distributions)


@given(random_spaces(), st.integers(min_value=0), st.booleans())
@settings(max_examples=80, deadline=None)
def test_updated_random_spaces_match_oracle(space, pick, holds):
    n = space.n_tuples
    i, j = pick % n, (pick // n) % n
    if i == j:
        j = (i + 1) % n
    for child in _updates(space, i, j, holds):
        assert_pool_parity(child)


def test_zero_mass_paths_do_not_unsettle_a_pair():
    # Only the zero-probability path ranks t1 above t0.
    space = OrderingSpace([[0, 1], [1, 0]], [1.0, 0.0], 2)
    assert is_settled(space, 0, 1)
    assert relevant_questions(space) == []


def test_tuples_absent_from_every_path_are_never_asked():
    space = OrderingSpace([[0, 1], [1, 0]], [0.5, 0.5], 4)
    assert relevant_questions(space) == [Question(0, 1)]
    assert_pool_parity(space)


def test_touching_intervals_are_excluded():
    space = OrderingSpace([[0, 1, 2], [1, 0, 2], [2, 1, 0]], [0.4, 0.3, 0.3], 3)
    distributions = [Uniform(0.0, 0.5), Uniform(0.5, 1.0), Uniform(0.25, 0.75)]
    pool = relevant_questions(space, distributions)
    assert Question(0, 1) not in pool
    assert pool == [Question(0, 2), Question(1, 2)]
    assert_pool_parity(space, distributions)


def test_point_mass_on_an_endpoint_is_excluded():
    space = OrderingSpace([[0, 1], [1, 0]], [0.5, 0.5], 2)
    assert relevant_questions(space, [PointMass(0.5), Uniform(0.5, 1.0)]) == []
    assert relevant_questions(space, [PointMass(0.6), Uniform(0.5, 1.0)]) == [
        Question(0, 1)
    ]


# ----------------------------------------------------------------------
# Stance kernel
# ----------------------------------------------------------------------


def _where_codes(pi, pj):
    """The formula the bool-mask kernel replaced."""
    return np.where(pi < pj, 1, np.where(pj < pi, -1, 0)).astype(np.int8)


@given(random_spaces(), st.integers(min_value=1, max_value=12), st.integers(0))
@settings(max_examples=80, deadline=None)
def test_stance_kernel_matches_where_formula(space, count, seed):
    """Same values, dtype and memory order as the ``np.where`` formula.

    The memory order matters as much as the values: ``rank_singles_batch``
    prices candidates with ``p @ codes``, and that matvec gives different
    float bits on a C-contiguous copy of the F-ordered stance matrix than
    on the matrix itself.  The golden replay suite demands exact equality
    of those residuals, so the kernel must keep the F order the fancy
    gathers ``pos[:, i]`` produce.
    """
    rng = np.random.default_rng(seed)
    n = space.n_tuples
    i_idx = rng.integers(0, n, size=count)
    j_idx = (i_idx + rng.integers(1, n, size=count)) % n
    pos = space.positions()

    matrix = space.stance_matrix(i_idx, j_idx)
    expected = _where_codes(pos[:, i_idx], pos[:, j_idx])
    assert matrix.dtype == np.int8
    np.testing.assert_array_equal(matrix, expected)
    assert matrix.flags["C_CONTIGUOUS"] == expected.flags["C_CONTIGUOUS"]
    assert matrix.flags["F_CONTIGUOUS"] == expected.flags["F_CONTIGUOUS"]

    for i, j in zip(i_idx[:3], j_idx[:3], strict=True):
        codes = space.agreement_codes(int(i), int(j))
        reference = _where_codes(pos[:, i], pos[:, j])
        assert codes.dtype == np.int8
        assert codes.flags["C_CONTIGUOUS"] == reference.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(codes, reference)

