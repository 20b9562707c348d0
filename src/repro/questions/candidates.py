"""Candidate question generation.

The paper distinguishes three pools (§III–IV):

* *all comparisons* among tuples appearing in ``T_K`` — what the ``Random``
  baseline draws from;
* the relevant set ``Q_K`` — comparisons of tuples **whose pdfs overlap**,
  i.e. whose relative order is genuinely uncertain (the ``Naive`` baseline
  and all proposed algorithms draw from this);
* the *informative* subset — pairs on which the current ordering space
  still disagrees, so an answer is guaranteed to prune something.  ``Q_K``
  shrinks to this set as answers arrive (asking an already-settled pair
  wastes budget), so the selection policies regenerate candidates from the
  live space.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.distributions.base import ScoreDistribution
from repro.questions.model import Question
from repro.tpo.space import OrderingSpace


def all_pair_questions(space: OrderingSpace) -> List[Question]:
    """Every pairwise comparison among tuples present in the space."""
    present = space.present_tuples()
    return [
        Question(int(present[a]), int(present[b]))
        for a in range(len(present))
        for b in range(a + 1, len(present))
    ]


def relevant_questions(
    space: OrderingSpace,
    distributions: Optional[Sequence[ScoreDistribution]] = None,
) -> List[Question]:
    """The paper's ``Q_K``: pairs with an uncertain relative order.

    When ``distributions`` are given, uncertainty means overlapping score
    pdfs (the paper's definition); otherwise it is inferred from the space
    (both orders carry positive probability).  Pairs the space has settled
    (see :func:`is_settled`) are excluded in both modes, since their
    expected uncertainty reduction is zero.

    Whole-matrix form of the per-pair test ``overlaps`` + ``is_settled``:
    one :meth:`~repro.tpo.space.OrderingSpace.pairwise_order_masses` pass
    counts, for every ordered pair, the live paths (positive probability)
    ranking ``t_i`` above ``t_j``; a pair stays unsettled when both
    directions count above zero.  Integer counts make the test exact, and
    tuples absent from every path never pass it.  Pairs come out in
    canonical ``(i, j)``, ``i < j`` row-major order.
    """
    live = (space.probabilities > 0.0).astype(np.float64)
    above, _ = space.pairwise_order_masses(weights=live)
    keep = (above > 0.0) & (above.T > 0.0)
    if distributions is not None:
        n = space.n_tuples
        lower = np.fromiter((distributions[t].lower for t in range(n)), float, n)
        upper = np.fromiter((distributions[t].upper for t in range(n)), float, n)
        # Strict ``<`` on both sides, the rule of ScoreDistribution.overlaps:
        # touching supports (lower == upper) do not overlap.
        keep &= (lower[:, None] < upper[None, :]) & (lower[None, :] < upper[:, None])
    rows, cols = np.nonzero(np.triu(keep, 1))
    return [Question(int(i), int(j)) for i, j in zip(rows, cols, strict=True)]


def is_settled(space: OrderingSpace, i: int, j: int) -> bool:
    """True when one decisive side of the pair carries no mass.

    The per-pair oracle of :func:`relevant_questions`.  Returns True when
    no path with positive probability ranks ``t_i`` above ``t_j``, or none
    ranks ``t_j`` above ``t_i``.  That covers pairs every ordering agrees
    on, pairs some paths are silent on (neither tuple in the prefix) while
    the rest agree, and pairs every path is silent on.  Such a pair cannot
    be pruned by the likely answer.
    """
    codes = space.agreement_codes(i, j)
    mass_plus = float(space.probabilities[codes == 1].sum())
    mass_minus = float(space.probabilities[codes == -1].sum())
    return mass_plus <= 0.0 or mass_minus <= 0.0


def informative_questions(space: OrderingSpace) -> List[Question]:
    """Pairs on which the space still disagrees (strictly prunable)."""
    return relevant_questions(space, distributions=None)


__all__ = [
    "all_pair_questions",
    "relevant_questions",
    "informative_questions",
    "is_settled",
]
