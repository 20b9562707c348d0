"""``InteractiveSession`` is the one session state machine.

A session's state is a pure function of its initial space and its answer
log, so every driver — the batch policy loops, snapshot restore, the API
replay and the service manager — must agree with replaying that log over
the core.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    BudgetSpec,
    CrowdSpec,
    InstanceSpec,
    PolicySpec,
    SessionSpec,
    replay_session,
    run_session,
)
from repro.core.session import InteractiveSession
from repro.service.manager import DuplicateSessionError, SessionManager

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
INSTANCE = InstanceSpec(n=9, k=3, seed=21, params={"width": 0.4})


def _spec(policy, accuracy=1.0):
    return SessionSpec(
        instance=INSTANCE,
        policy=PolicySpec(policy),
        crowd=CrowdSpec(accuracy=accuracy),
        budget=BudgetSpec(questions=5),
    )


@pytest.mark.parametrize(
    "policy, accuracy",
    [("T1-on", 1.0), ("T1-on", 0.8), ("TB-off", 1.0), ("TB-off", 0.8)],
)
def test_batch_run_equals_replay_of_its_answers(policy, accuracy):
    spec = _spec(policy, accuracy)
    result = run_session(spec)
    assert result.questions_asked > 0
    replay = replay_session(
        spec,
        [
            (a.question.i, a.question.j, a.holds, a.accuracy)
            for a in result.answers
        ],
    )
    assert replay.orderings[-1] == result.orderings_final
    np.testing.assert_array_equal(
        replay.space.probabilities, result.final_space.probabilities
    )
    assert replay.uncertainties[-1] == result.final_uncertainty


def test_replay_reports_every_state_and_returns_the_session():
    distributions = INSTANCE.materialize()
    space = (
        _spec("T1-on").build_builder().build(distributions, 3).to_space()
    )
    session = InteractiveSession(distributions, 3, space)
    seen = []
    log = [(0, 1, True, 0.8), (2, 1, False, 0.9)]
    assert session.replay(log, on_state=seen.append) is session
    assert len(seen) == len(log)
    assert seen[-1] is session.space
    assert session.answers_key() == ((0, 1, True, 0.8), (1, 2, True, 0.9))


def test_duplicate_session_id_is_typed_and_skipped_on_resume(tmp_path):
    log = tmp_path / "events.jsonl"
    manager = SessionManager(log_path=log)
    manager.create_session(INSTANCE, session_id="a")
    with pytest.raises(DuplicateSessionError, match="'a' already exists"):
        manager.create_session(INSTANCE, session_id="a")
    # A duplicate create that reached the log is skipped on replay.
    with open(log) as handle:
        create = handle.readline()
    with open(log, "a") as handle:
        handle.write(create)
    resumed = SessionManager.resume(log)
    assert resumed.session_ids() == ["a"]
    assert resumed.replay_skipped == 1


def test_apply_answer_has_one_caller():
    """Only ``InteractiveSession`` applies answers to a space."""
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "apply_answer"
                ):
                    callers.append((path.name, getattr(top, "name", None)))
    assert callers == [("session.py", "InteractiveSession")]
