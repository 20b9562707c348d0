"""The uncertainty-reduction session: policy × crowd × TPO orchestration.

:class:`InteractiveSession` is the one session state machine: an initial
ordering space plus the log of applied answers, where each answer prunes
(reliable) or reweights (noisy) the space.  Replaying a log anywhere — a
snapshot restore, :func:`repro.api.replay_session`, the service's resume —
applies its answer method to each answer in turn.

:class:`UncertaintyReductionSession` is the batch driver on top of it.  It
owns everything one top-K-with-crowd run needs — the uncertain scores, the
TPO builder, the uncertainty measure, and the (simulated) crowd — and
steps the state machine with a question-selection policy against a
budget, keeping the books the experiments need: questions asked, CPU time
split into build/select/update, uncertainty before/after, and the paper's
quality metric ``D(ω_r, T_K)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.incremental import IncrementalAlgorithm
from repro.core.policies.base import (
    POOL_ALL,
    OfflinePolicy,
    OnlinePolicy,
    Policy,
)
from repro.crowd.simulator import SimulatedCrowd
from repro.distributions.base import ScoreDistribution
from repro.questions.candidates import all_pair_questions, relevant_questions
from repro.questions.model import Answer, AnswerTuple, Question
from repro.questions.residual import ResidualEvaluator, select_min_residual
from repro.questions.transitive import InferenceCache
from repro.rank.kendall import DEFAULT_PENALTY, expected_topk_distance
from repro.tpo.builders import ENGINES, TPOBuilder
from repro.tpo.space import OrderingSpace
from repro.uncertainty.base import UncertaintyMeasure
from repro.uncertainty.entropy import EntropyMeasure
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timing import Stopwatch


@dataclass
class SessionResult:
    """Outcome of one policy run (one repetition of one experiment cell)."""

    policy: str
    budget: int
    questions_asked: int
    answers: List[Answer]
    final_space: OrderingSpace
    initial_uncertainty: float
    final_uncertainty: float
    distance_to_truth: float
    initial_distance: float
    orderings_initial: int
    orderings_final: int
    #: CPU seconds per session phase.  Exactly three keys may appear —
    #: ``"build"`` (TPO construction, including ``incr``'s level-by-level
    #: extensions), ``"select"`` (policy question scoring), and
    #: ``"update"`` (posterior pruning/reweighting after answers) — and a
    #: key is present only once its phase has run at least once (e.g. a
    #: zero-budget offline run never records ``"update"``).
    #: :attr:`cpu_seconds` is their sum.
    timings: Dict[str, float] = field(default_factory=dict)
    crowd_cost: float = 0.0
    #: ``D(ω_r, ·)`` before any question plus after every *charged* answer
    #: (inferred answers are applied but not recorded), so
    #: ``len(trajectory) == questions_asked + 1`` whenever tracked.
    trajectory: Optional[List[float]] = None
    #: Questions answered for free by transitive inference (0 unless the
    #: session was built with ``use_transitive_inference=True``).
    inferred_answers: int = 0
    #: Contradictory reliable answers swallowed during this run (the
    #: assumed accuracy overstated the crowd; the space was left
    #: unchanged).  Non-zero means the "reliable" crowd was in fact noisy.
    contradictions: int = 0

    @property
    def cpu_seconds(self) -> float:
        """Algorithm CPU time (build + select + update, no crowd latency)."""
        return sum(self.timings.values())

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.policy:>10s}  B={self.budget:<3d} asked={self.questions_asked:<3d} "
            f"D={self.distance_to_truth:.4f} (from {self.initial_distance:.4f})  "
            f"U={self.final_uncertainty:.4f} (from {self.initial_uncertainty:.4f})  "
            f"cpu={self.cpu_seconds:.3f}s"
        )


class UncertaintyReductionSession:
    """Runs question-selection policies over one uncertain top-K query.

    Parameters
    ----------
    distributions:
        Uncertain scores of the N tuples.
    k:
        Top-K depth of the query.
    crowd:
        Answer source (normally a :class:`SimulatedCrowd`); its ground
        truth also defines the quality metric.
    builder:
        TPO engine (default: grid).
    measure:
        Uncertainty measure driving all policies (default: ``U_H``).
    track_trajectory:
        When True, record ``D(ω_r, ·)`` after every answer.
    use_transitive_inference:
        When True (and the crowd is reliable), answers implied by the
        transitive closure of previous answers — or by disjoint pdf
        supports — are applied for free instead of being posted to the
        crowd, stretching the budget (see
        :mod:`repro.questions.transitive`).
    """

    def __init__(
        self,
        distributions: Sequence[ScoreDistribution],
        k: int,
        crowd: SimulatedCrowd,
        builder: Optional[TPOBuilder] = None,
        measure: Optional[UncertaintyMeasure] = None,
        penalty: float = DEFAULT_PENALTY,
        rng: SeedLike = None,
        track_trajectory: bool = False,
        use_transitive_inference: bool = False,
    ) -> None:
        self.distributions = list(distributions)
        self.k = min(k, len(self.distributions))
        self.crowd = crowd
        self.builder = (
            builder if builder is not None else ENGINES.create("grid")
        )
        self.measure = measure if measure is not None else EntropyMeasure()
        self.evaluator = ResidualEvaluator(self.measure)
        self.penalty = penalty
        self.rng = ensure_rng(rng)
        self.track_trajectory = track_trajectory
        self.use_transitive_inference = use_transitive_inference
        self.watch = Stopwatch()
        self._inference: Optional[InferenceCache] = None
        self._contradictions_at_start = self.evaluator.contradictions

    # ------------------------------------------------------------------

    def _distance(self, space: OrderingSpace) -> float:
        """The paper's ``D(ω_r, T_K)`` against the crowd's ground truth."""
        reference = self.crowd.truth.top_k(self.k)
        return expected_topk_distance(
            space, reference, penalty=self.penalty, normalized=True
        )

    def _candidates(
        self, core: "InteractiveSession", pool: str
    ) -> List[Question]:
        if pool == POOL_ALL:
            return all_pair_questions(core.space)
        return core.candidates()

    # ------------------------------------------------------------------

    def run(self, policy: Policy, budget: int) -> SessionResult:
        """Execute ``policy`` with ``budget`` questions; returns the books.

        Every call starts from a freshly built TPO and the crowd's current
        ground truth; timings and crowd statistics are reset.
        """
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.watch.reset()
        self.crowd.stats.reset()
        self._contradictions_at_start = self.evaluator.contradictions
        self._inference = None
        if self.use_transitive_inference and self.crowd.is_reliable:
            self._inference = InferenceCache(
                len(self.distributions), self.distributions
            )
        # incr prunes partial trees, not spaces, so it skips InteractiveSession.
        if isinstance(policy, IncrementalAlgorithm):
            return self._run_incremental(policy, budget)
        with self.watch.span("build"):
            tree = self.builder.build(self.distributions, self.k)
            space = tree.to_space()
        initial_uncertainty = self.evaluator.uncertainty(space)
        initial_distance = self._distance(space)
        orderings_initial = space.size
        trajectory = [initial_distance] if self.track_trajectory else None
        answers: List[Answer] = []
        core = InteractiveSession(
            self.distributions, self.k, space, evaluator=self.evaluator
        )
        if isinstance(policy, OfflinePolicy):
            self._run_offline(policy, core, budget, answers, trajectory)
        elif isinstance(policy, OnlinePolicy):
            self._run_online(policy, core, budget, answers, trajectory)
        else:
            raise TypeError(
                f"{type(policy).__name__} is neither offline, online, nor incr"
            )
        return self._result(
            policy,
            budget,
            answers,
            core.space,
            initial_uncertainty,
            initial_distance,
            orderings_initial,
            trajectory,
        )

    # ------------------------------------------------------------------

    def _obtain_answer(self, question: Question) -> tuple:
        """Answer a question, for free when transitively implied.

        Returns ``(answer, was_inferred)``; inferred answers never reach
        the crowd and do not consume budget.
        """
        if self._inference is not None:
            inferred = self._inference.lookup(question)
            if inferred is not None:
                return inferred, True
        answer = self.crowd.ask(question)
        if self._inference is not None:
            self._inference.record(answer)
        return answer, False

    def _ask_and_apply(
        self,
        core: "InteractiveSession",
        question: Question,
        answers: List[Answer],
        trajectory: Optional[List[float]],
    ) -> bool:
        """Obtain one answer and apply it to ``core``; returns whether it
        was inferred.

        Only charged answers are recorded in ``answers`` and get a
        trajectory point, so ``len(trajectory)`` stays
        ``questions_asked + 1``.
        """
        answer, inferred = self._obtain_answer(question)
        with self.watch.span("update"):
            core.submit_answer(
                question.i, question.j, answer.holds, answer.accuracy
            )
        if not inferred:
            answers.append(answer)
            if trajectory is not None:
                trajectory.append(self._distance(core.space))
        return inferred

    def _run_offline(
        self,
        policy: OfflinePolicy,
        core: "InteractiveSession",
        budget: int,
        answers: List[Answer],
        trajectory: Optional[List[float]],
    ) -> None:
        with self.watch.span("select"):
            candidates = self._candidates(core, policy.pool)
            batch = policy.select(
                core.space, candidates, budget, self.evaluator, self.rng
            )
        for question in batch:
            self._ask_and_apply(core, question, answers, trajectory)

    def _run_online(
        self,
        policy: OnlinePolicy,
        core: "InteractiveSession",
        budget: int,
        answers: List[Answer],
        trajectory: Optional[List[float]],
    ) -> None:
        # Livelock guard: an inferred answer consumes no budget, and when
        # it also fails to shrink/reweight the space the iteration makes no
        # progress.  Questions known to be fruitless are filtered out of
        # the candidate pool, so any policy drawing from the pool —
        # deterministic or stochastic — falls through to a chargeable
        # question if one remains and returns None once none do.  A small
        # constant skip bound backstops policies that ignore the pool and
        # keep re-proposing a fruitless question.
        fruitless: set = set()
        consecutive_skips = 0
        while len(answers) < budget:
            with self.watch.span("select"):
                candidates = self._candidates(core, policy.pool)
                if fruitless:
                    candidates = [
                        q for q in candidates if q not in fruitless
                    ]
                question = policy.next_question(
                    core.space,
                    candidates,
                    budget - len(answers),
                    self.evaluator,
                    self.rng,
                )
            if question is None:
                break  # early termination: uncertainty exhausted
            if question in fruitless:
                consecutive_skips += 1
                if consecutive_skips > 8:
                    break  # policy keeps proposing a no-progress question
                continue
            before = core.space
            inferred = self._ask_and_apply(core, question, answers, trajectory)
            if (not inferred) or (core.space is not before):
                fruitless.clear()
                consecutive_skips = 0
            else:
                fruitless.add(question)

    def _run_incremental(
        self, policy: IncrementalAlgorithm, budget: int
    ) -> SessionResult:
        space, answers = policy.run(self, budget)
        # incr never materializes the unpruned T_K; initial metrics are
        # reported as NaN rather than paying the full construction cost.
        return self._result(
            policy,
            budget,
            answers,
            space,
            initial_uncertainty=float("nan"),
            initial_distance=float("nan"),
            orderings_initial=-1,
            trajectory=None,
        )

    # ------------------------------------------------------------------

    def _result(
        self,
        policy: Policy,
        budget: int,
        answers: List[Answer],
        space: OrderingSpace,
        initial_uncertainty: float,
        initial_distance: float,
        orderings_initial: int,
        trajectory: Optional[List[float]],
    ) -> SessionResult:
        return SessionResult(
            policy=policy.name,
            budget=budget,
            questions_asked=len(answers),
            answers=answers,
            final_space=space,
            initial_uncertainty=initial_uncertainty,
            final_uncertainty=self.evaluator.uncertainty(space),
            distance_to_truth=self._distance(space),
            initial_distance=initial_distance,
            orderings_initial=orderings_initial,
            orderings_final=space.size,
            timings=dict(self.watch.totals),
            crowd_cost=self.crowd.stats.total_cost,
            trajectory=trajectory,
            inferred_answers=(
                self._inference.savings if self._inference is not None else 0
            ),
            contradictions=(
                self.evaluator.contradictions - self._contradictions_at_start
            ),
        )


@dataclass(frozen=True)
class SessionSnapshot:
    """Restorable mid-session state: the query depth plus every applied
    answer, in order.

    The snapshot deliberately stores *answers*, not the pruned space: the
    live space is a deterministic function of (initial TPO, answer
    sequence), so replaying the answers over a freshly built — or
    cache-shared — initial space reproduces the state bit-for-bit.  This is
    the same event-sourcing contract the service layer's JSONL log builds
    on, and it keeps snapshots small and JSON-portable.
    """

    k: int
    #: One :data:`AnswerTuple` per applied answer, canonical ``i < j``.
    answers: Tuple[AnswerTuple, ...]

    def to_dict(self) -> Dict:
        """Plain-JSON form (used by the service snapshot endpoint)."""
        return {"k": self.k, "answers": [list(a) for a in self.answers]}

    @classmethod
    def from_dict(cls, data: Dict) -> "SessionSnapshot":
        """Inverse of :meth:`to_dict`."""
        return cls(
            k=int(data["k"]),
            answers=tuple(
                (int(i), int(j), bool(holds), float(accuracy))
                for i, j, holds, accuracy in data["answers"]
            ),
        )


class InteractiveSession:
    """The session state machine: initial space, applied answers, evaluator.

    A session's state is a pure function of its initial space and the
    answers applied to it, and :meth:`submit_answer` is the one place an
    answer is applied (pruned or reweighted).  Every driver steps this
    class: :class:`UncertaintyReductionSession` runs its policy loops over
    it, the service manager serves traffic with it (callers pull the
    currently most informative question and push answers as the crowd
    produces them), and replaying an answer log — :meth:`restore`,
    :func:`repro.api.replay_session`, the manager's resume — is
    :meth:`replay`, i.e. :meth:`submit_answer` over each answer.

    Parameters
    ----------
    distributions:
        Uncertain scores of the N tuples.
    k:
        Top-K depth of the query.
    space:
        The *initial* ordering space (a freshly built TPO flattened via
        ``to_space``).  Spaces are immutable, so one instance may be shared
        by any number of concurrent sessions — this is the hook the
        service-layer TPO cache plugs into.
    measure:
        Uncertainty measure driving question ranking (default ``U_H``);
        ignored when ``evaluator`` is given.
    evaluator:
        Optional shared :class:`ResidualEvaluator` (the session manager
        passes one so evaluation counters aggregate across sessions).
    """

    def __init__(
        self,
        distributions: Sequence[ScoreDistribution],
        k: int,
        space: OrderingSpace,
        measure: Optional[UncertaintyMeasure] = None,
        evaluator: Optional[ResidualEvaluator] = None,
    ) -> None:
        self.distributions = list(distributions)
        self.k = min(k, len(self.distributions))
        if evaluator is None:
            evaluator = ResidualEvaluator(
                measure if measure is not None else EntropyMeasure()
            )
        self.evaluator = evaluator
        self.initial_space = space
        self.space = space
        self.answers: List[Answer] = []

    # ------------------------------------------------------------------

    @property
    def questions_asked(self) -> int:
        """Number of answers applied so far."""
        return len(self.answers)

    @property
    def is_settled(self) -> bool:
        """True once a single ordering remains."""
        return self.space.is_certain

    def candidates(self) -> List[Question]:
        """The live relevant pool ``Q_K`` (settled pairs drop out)."""
        return relevant_questions(self.space, self.distributions)

    def ranking(
        self, candidates: Optional[Sequence[Question]] = None
    ) -> Tuple[List[Question], np.ndarray]:
        """All candidate questions with their expected residuals ``R_q``.

        The pair of aligned sequences — not just the winner — so callers
        coalescing rankings across sessions (the service manager) can
        compute once and share.
        """
        if candidates is None:
            candidates = self.candidates()
        candidates = list(candidates)
        return candidates, self.evaluator.rank_singles_batch(
            self.space, candidates
        )

    def next_question(
        self,
        ranking: Optional[Tuple[Sequence[Question], np.ndarray]] = None,
    ) -> Optional[Question]:
        """The most informative question now, or None when nothing is left.

        Ties resolve to the first candidate in canonical pair order, so the
        choice is deterministic — a restored session asks exactly the
        questions the uninterrupted one would.  On a beam-approximate
        space, residuals within the measure's certified interval width
        count as tied (:func:`select_min_residual`); exact spaces keep
        the historical plain ``argmin``.  ``ranking`` short-circuits the
        computation with a precomputed (possibly shared) ranking.
        """
        if ranking is None:
            ranking = self.ranking()
        candidates, residuals = ranking
        if len(candidates) == 0:
            return None
        slack = self.evaluator.ranking_slack(self.space)
        return candidates[select_min_residual(residuals, slack)]

    def submit_answer(
        self, i: int, j: int, holds: bool, accuracy: float = 1.0
    ) -> Answer:
        """Apply one crowd answer — "t_i ranks above t_j" is ``holds`` —
        (prune or reweight) and record it.

        A reversed pair (``i > j``) is canonicalized to ``i < j`` with
        ``holds`` flipped, so the recorded answer states the same fact
        about the canonical :class:`Question`.
        """
        i, j, holds = int(i), int(j), bool(holds)
        if i > j:
            i, j, holds = j, i, not holds
        question = Question(i, j)
        accuracy = float(accuracy)
        self.space = self.evaluator.apply_answer(
            self.space, question, holds, accuracy
        )
        answer = Answer(question, holds, accuracy=accuracy)
        self.answers.append(answer)
        return answer

    def replay(
        self,
        answers: Iterable[AnswerTuple],
        on_state: Optional[Callable[[OrderingSpace], None]] = None,
    ) -> "InteractiveSession":
        """Apply an answer log in order; returns ``self``.

        ``on_state`` is called with the space after every applied answer
        (callers that track the trajectory record the initial state
        themselves).
        """
        for i, j, holds, accuracy in answers:
            self.submit_answer(i, j, holds, accuracy)
            if on_state is not None:
                on_state(self.space)
        return self

    def top_k(self) -> List[int]:
        """The current most probable top-K prefix (the paper's MPO)."""
        return [int(t) for t in self.space.most_probable_ordering()]

    def uncertainty(self) -> float:
        """Current ``U(T)`` under the session's measure."""
        return self.evaluator.uncertainty(self.space)

    # ------------------------------------------------------------------

    def answers_key(self) -> Tuple[AnswerTuple, ...]:
        """Hashable identity of the applied answer sequence.

        Two sessions over the same initial space with equal keys are in
        bit-identical states — the property the service manager's
        cross-session ranking coalescing keys on.
        """
        return tuple(a.as_tuple() for a in self.answers)

    def snapshot(self) -> SessionSnapshot:
        """Freeze the session into a restorable, JSON-portable snapshot."""
        return SessionSnapshot(k=self.k, answers=self.answers_key())

    @classmethod
    def restore(
        cls,
        snapshot: SessionSnapshot,
        distributions: Sequence[ScoreDistribution],
        space: OrderingSpace,
        measure: Optional[UncertaintyMeasure] = None,
        evaluator: Optional[ResidualEvaluator] = None,
    ) -> "InteractiveSession":
        """Rebuild a live session by replaying a snapshot's answers.

        ``distributions`` and ``space`` must describe the same instance the
        snapshot was taken from (the initial space, not the pruned one).
        """
        return cls(
            distributions,
            snapshot.k,
            space,
            measure=measure,
            evaluator=evaluator,
        ).replay(snapshot.answers)


__all__ = [
    "UncertaintyReductionSession",
    "SessionResult",
    "InteractiveSession",
    "SessionSnapshot",
]
