"""A reversed answer pair means the same thing on every replay path.

"t_3 ranks above t_1" is ``(3, 1, True)``; canonically that is
``(1, 3, False)``.  The session state machine canonicalizes once, so the
batch replay, a snapshot restore and the service manager must all land in
the same state for either spelling.
"""

import numpy as np
import pytest

from repro.api import InstanceSpec, SessionSpec, replay_session
from repro.core.session import InteractiveSession, SessionSnapshot
from repro.service.manager import SessionManager

SPEC = SessionSpec(
    instance=InstanceSpec(n=8, k=3, seed=3, params={"width": 0.4})
)
REVERSED = (3, 1, True, 1.0)
CANONICAL = (1, 3, False, 1.0)


def _initial():
    distributions = SPEC.instance.materialize()
    tree = SPEC.build_builder().build(distributions, SPEC.instance.k)
    return distributions, tree.to_space()


def _state(space):
    return (
        space.size,
        [int(t) for t in space.most_probable_ordering()],
        space.probabilities.tolist(),
    )


@pytest.fixture(scope="module")
def expected():
    space = replay_session(SPEC, [CANONICAL]).space
    assert space.size == 62
    assert [int(t) for t in space.most_probable_ordering()] == [3, 6, 4]
    return _state(space)


def test_replay_session_flips_a_reversed_pair(expected):
    assert _state(replay_session(SPEC, [REVERSED]).space) == expected


def test_restore_from_dict_flips_a_reversed_pair(expected):
    distributions, space = _initial()
    snapshot = SessionSnapshot.from_dict(
        {"k": SPEC.instance.k, "answers": [list(REVERSED)]}
    )
    restored = InteractiveSession.restore(snapshot, distributions, space)
    assert _state(restored.space) == expected
    # The applied log is canonical, whatever spelling came in.
    assert restored.answers_key() == (CANONICAL,)


def test_manager_and_resume_flip_a_reversed_pair(expected, tmp_path):
    log = tmp_path / "events.jsonl"
    manager = SessionManager(log_path=log, builder=SPEC.build_builder())
    sid = manager.create_session(SPEC.instance)
    manager.submit_answer(sid, 3, 1, True)
    live = manager._get(sid).session
    assert _state(live.space) == expected
    assert manager.snapshot(sid)["snapshot"]["answers"] == [list(CANONICAL)]
    resumed = SessionManager.resume(log, builder=SPEC.build_builder())
    np.testing.assert_array_equal(
        resumed._get(sid).session.space.probabilities,
        live.space.probabilities,
    )
