"""Snapshot/restore round-trip of the interactive session API."""

import numpy as np
import pytest

from repro.core.session import InteractiveSession, SessionSnapshot
from repro.crowd.oracle import GroundTruth
from repro.crowd.simulator import SimulatedCrowd
from repro.tpo.builders import GridBuilder
from repro.workloads.synthetic import uniform_intervals


def build_instance(n=10, k=4, width=0.35, seed=11):
    distributions = uniform_intervals(n, width=width, rng=seed)
    space = GridBuilder(resolution=512).build(distributions, k).to_space()
    return distributions, space


def make_crowd(distributions, seed=11):
    truth = GroundTruth.sample(distributions, np.random.default_rng(seed))
    return SimulatedCrowd(truth, worker_accuracy=1.0)


def drive(session, crowd, steps):
    """Answer up to ``steps`` questions; returns how many were applied."""
    applied = 0
    for _ in range(steps):
        question = session.next_question()
        if question is None:
            break
        answer = crowd.ask(question)
        session.submit_answer(
            question.i, question.j, answer.holds, accuracy=answer.accuracy
        )
        applied += 1
    return applied


class TestInteractiveSession:
    def test_questions_shrink_the_space(self):
        distributions, space = build_instance()
        session = InteractiveSession(distributions, 4, space)
        crowd = make_crowd(distributions)
        initial = session.space.size
        assert drive(session, crowd, 5) > 0
        assert session.space.size < initial
        assert session.questions_asked == len(session.answers)

    def test_next_question_is_deterministic(self):
        distributions, space = build_instance()
        first = InteractiveSession(distributions, 4, space)
        second = InteractiveSession(distributions, 4, space)
        assert first.next_question() == second.next_question()

    def test_settled_session_returns_none(self):
        distributions, space = build_instance(n=5, k=2, width=0.05)
        session = InteractiveSession(distributions, 2, space)
        crowd = make_crowd(distributions)
        drive(session, crowd, 50)
        assert session.next_question() is None

    def test_noncanonical_pair_is_rejected_by_question(self):
        # Questions are canonical; answers to a reversed pair are
        # canonicalized by submit_answer (see test_reversed_pairs.py).
        distributions, space = build_instance()
        session = InteractiveSession(distributions, 4, space)
        question = session.next_question()
        assert question.i < question.j


class TestSnapshotRoundTrip:
    def test_snapshot_serializes_to_plain_json(self):
        distributions, space = build_instance()
        session = InteractiveSession(distributions, 4, space)
        crowd = make_crowd(distributions)
        drive(session, crowd, 3)
        data = session.snapshot().to_dict()
        assert data["k"] == 4
        assert len(data["answers"]) == 3
        restored = SessionSnapshot.from_dict(data)
        assert restored == session.snapshot()

    def test_restore_reproduces_remaining_ranking_and_topk(self):
        """The acceptance property: serialize mid-session, restore, and the
        remaining-question ranking and the final top-K equal those of an
        uninterrupted run."""
        distributions, space = build_instance(n=12, k=4, seed=7)
        crowd = make_crowd(distributions, seed=7)

        uninterrupted = InteractiveSession(distributions, 4, space)
        drive(uninterrupted, crowd, 4)
        mid_snapshot = uninterrupted.snapshot()
        # Ranking over the remaining questions at the cut point.
        expected_candidates, expected_residuals = uninterrupted.ranking()

        restored = InteractiveSession.restore(
            mid_snapshot, distributions, space
        )
        candidates, residuals = restored.ranking()
        assert candidates == expected_candidates
        np.testing.assert_allclose(residuals, expected_residuals, atol=0)
        assert restored.space.size == uninterrupted.space.size
        np.testing.assert_array_equal(
            restored.space.probabilities, uninterrupted.space.probabilities
        )

        # Drive both to completion: identical questions, identical top-K.
        drive(uninterrupted, crowd, 100)
        drive(restored, crowd, 100)
        assert restored.answers_key() == uninterrupted.answers_key()
        assert restored.top_k() == uninterrupted.top_k()

    def test_restore_replays_noisy_answers(self):
        distributions, space = build_instance(n=8, k=3, seed=3)
        session = InteractiveSession(distributions, 3, space)
        question = session.next_question()
        session.submit_answer(question.i, question.j, True, accuracy=0.8)
        restored = InteractiveSession.restore(
            session.snapshot(), distributions, space
        )
        np.testing.assert_array_equal(
            restored.space.probabilities, session.space.probabilities
        )
        assert restored.answers[0].accuracy == pytest.approx(0.8)

    def test_snapshot_of_fresh_session_restores_to_initial_space(self):
        distributions, space = build_instance()
        session = InteractiveSession(distributions, 4, space)
        restored = InteractiveSession.restore(
            session.snapshot(), distributions, space
        )
        assert restored.space is space
        assert restored.questions_asked == 0
