"""Crowd task model: pairwise ranking questions and their answers.

A crowd task is the comparison ``q = (t_i ?≺ t_j)`` — "does tuple i rank
higher than tuple j?".  Questions are canonicalized to ``i < j`` so that a
pair is one hashable identity regardless of phrasing; an :class:`Answer`
then states whether the canonical claim holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


#: One recorded crowd answer, ``(i, j, holds, accuracy)``: "t_i ranks above
#: t_j" is ``holds``, under the given reliability.  Session snapshots, the
#: service event log and :func:`repro.api.replay_session` all carry answers
#: in this shape.
AnswerTuple = Tuple[int, int, bool, float]


@dataclass(frozen=True, order=True)
class Question:
    """The pairwise comparison ``t_i ?≺ t_j`` (canonical form ``i < j``)."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError("a question must compare two distinct tuples")
        if self.i > self.j:
            # Canonicalize: swap via object.__setattr__ (frozen dataclass).
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)

    @property
    def pair(self) -> Tuple[int, int]:
        """The compared tuple indices ``(i, j)`` with ``i < j``."""
        return (self.i, self.j)

    def __repr__(self) -> str:
        return f"Question(t{self.i} ?≺ t{self.j})"


@dataclass(frozen=True)
class Answer:
    """A worker's reply to a question.

    Attributes
    ----------
    question:
        The canonical question being answered.
    holds:
        True ⇔ the worker asserts ``t_i ≺ t_j`` (the canonical claim).
    accuracy:
        The reliability assumed for this answer when updating the TPO:
        1.0 triggers hard pruning, anything lower a Bayesian reweighting.
    """

    question: Question
    holds: bool
    accuracy: float = 1.0

    def as_tuple(self) -> AnswerTuple:
        """This answer as a plain-typed :data:`AnswerTuple`."""
        return (
            int(self.question.i),
            int(self.question.j),
            bool(self.holds),
            float(self.accuracy),
        )

    def __repr__(self) -> str:
        relation = "≺" if self.holds else "⊀"
        return (
            f"Answer(t{self.question.i} {relation} t{self.question.j}, "
            f"accuracy={self.accuracy:g})"
        )


__all__ = ["AnswerTuple", "Question", "Answer"]
