"""Campaign planning and admission, shared by both engine front-ends.

:class:`CampaignPlanner` owns everything that happens between "a campaign
was submitted" and "a campaign is live with a pricing runtime": building
the forecast slice the campaign plans against, constructing its
:class:`~repro.core.deadline.model.DeadlineProblem` or budget request, and
resolving the policy through the shared
:class:`~repro.engine.cache.PolicyCache`.  Both
:class:`~repro.engine.engine.MarketplaceEngine` and
:class:`~repro.engine.sharding.ShardedEngine` admit through one planner,
so they price campaigns identically.

Admission has two paths:

* :meth:`CampaignPlanner.admit` — the scalar path: one cache lookup, one
  solve on miss (``solve_deadline`` / ``solve_budget_hull`` per instance).
* :meth:`CampaignPlanner.admit_many` — the batch fast path: all of one
  tick's cache misses are drained into a
  :class:`~repro.core.batch.solver.BatchPolicySolver` and solved in one
  stacked array pass (see :mod:`repro.core.batch`).
"""

from __future__ import annotations

import numpy as np

from repro.core.batch.budget import BudgetRequest
from repro.core.batch.solver import BatchPolicySolver
from repro.core.budget.static_lp import solve_budget_hull
from repro.core.deadline.adaptive import AdaptiveRepricer
from repro.core.deadline.model import DeadlineProblem, PenaltyScheme
from repro.core.deadline.vectorized import solve_deadline
from repro.engine.cache import PolicyCache
from repro.engine.campaign import BUDGET, DEADLINE, CampaignSpec
from repro.market.acceptance import AcceptanceModel
from repro.sim.policies import PricingRuntime, SemiStaticRuntime, TablePolicyRuntime

__all__ = ["CampaignPlanner", "PLANNING_MODES", "resolve_planning_means"]

#: Supported planning-forecast modes.
PLANNING_MODES = ("sliced", "stationary")

#: Most distinct campaign shapes the plan memo holds before it starts
#: over (each entry is one small request; a session's workload normally
#: has a handful of shapes, but sliced planning keys on the submit
#: interval too).
_PLAN_MEMO_LIMIT = 4096


def resolve_planning_means(
    planning_means: np.ndarray | None, stream_means: np.ndarray
) -> np.ndarray:
    """Default the planning forecast to the stream and check its shape.

    Shared by every engine front-end so the forecast contract (one entry
    per stream interval) cannot drift between them.
    """
    if planning_means is None:
        return stream_means
    means = np.asarray(planning_means, dtype=float)
    if means.shape != stream_means.shape:
        raise ValueError(
            "planning_means must have one entry per stream interval "
            f"({stream_means.size}), got shape {means.shape}"
        )
    return means


class _LiveCampaign:
    """Mutable runtime state of one admitted campaign (engine-internal)."""

    __slots__ = (
        "spec",
        "runtime",
        "remaining",
        "total_cost",
        "finished_interval",
        "cache_hit",
        "initial_solves",
    )

    def __init__(
        self,
        spec: CampaignSpec,
        runtime: PricingRuntime,
        cache_hit: bool,
        initial_solves: int,
    ):
        self.spec = spec
        self.runtime = runtime
        self.remaining = spec.num_tasks
        self.total_cost = 0.0
        self.finished_interval: int | None = None
        self.cache_hit = cache_hit
        self.initial_solves = initial_solves

    def num_solves(self) -> int:
        """Solves attributable to this campaign (adaptive ones re-plan)."""
        if isinstance(self.runtime, AdaptiveRepricer):
            return self.runtime.num_solves
        return self.initial_solves

    def charge(self, done: int, posted_price: float) -> float:
        """Payment owed for ``done`` completions this tick.

        Deadline campaigns pay the posted reward per completion.  Budget
        campaigns step through their semi-static price sequence one task
        at a time (Definition 2 moves to the next price on *each*
        completion), so realized spend can never exceed the allocation's
        budget even when one interval delivers several completions.
        """
        if isinstance(self.runtime, SemiStaticRuntime):
            completed = self.spec.num_tasks - self.remaining
            strategy = self.runtime.strategy
            return float(
                sum(strategy.price_at(completed + j) for j in range(done))
            )
        return done * posted_price

    def outcome(self, cancelled: bool = False):
        """Freeze the final accounting (a ``CampaignOutcome``).

        A cancelled campaign reports the partial utility delivered so far
        (completions, spend) and is charged no terminal penalty — the
        requester withdrew; the marketplace did not miss the deadline.
        """
        from repro.engine.campaign import CampaignOutcome

        penalty = (
            self.spec.penalty_per_task * self.remaining
            if self.spec.kind == DEADLINE and not cancelled
            else 0.0
        )
        return CampaignOutcome(
            spec=self.spec,
            completed=self.spec.num_tasks - self.remaining,
            remaining=self.remaining,
            total_cost=self.total_cost,
            penalty=penalty,
            finished_interval=self.finished_interval,
            cache_hit=self.cache_hit,
            num_solves=self.num_solves(),
            cancelled=cancelled,
        )


class CampaignPlanner:
    """Builds planning problems and admits campaigns through the cache.

    Parameters
    ----------
    acceptance:
        The marketplace ``p(c)`` model all campaigns plan against.
    cache:
        Shared :class:`PolicyCache`; identical instances are solved once.
    planning:
        ``"sliced"`` (plan against the time-aligned forecast slice) or
        ``"stationary"`` (plan against a flat canonical forecast, which
        makes same-shaped campaigns cache-identical).
    planning_means:
        Per-interval arrival forecast the campaigns plan against.
    truncation_eps:
        Poisson-truncation threshold handed to every deadline instance.
    batch_solve:
        When True (default), :meth:`admit_many` drains cache misses
        through the batched array kernels; when False it falls back to
        per-campaign scalar solves (useful for benchmarking the fast
        path against its baseline).
    batch_solver:
        The :class:`BatchPolicySolver` to drain into; defaults to a fresh
        one.  Its :attr:`~BatchPolicySolver.stats` record how much
        batching the workload offered.
    """

    def __init__(
        self,
        acceptance: AcceptanceModel,
        cache: PolicyCache,
        planning: str,
        planning_means: np.ndarray,
        truncation_eps: float | None = 1e-9,
        batch_solve: bool = True,
        batch_solver: BatchPolicySolver | None = None,
    ):
        if planning not in PLANNING_MODES:
            raise ValueError(
                f"planning must be one of {PLANNING_MODES}, got {planning!r}"
            )
        self.acceptance = acceptance
        self.cache = cache
        self.planning = planning
        self.planning_means = np.asarray(planning_means, dtype=float)
        self.truncation_eps = truncation_eps
        self.batch_solve = batch_solve
        self.batch_solver = batch_solver if batch_solver is not None else BatchPolicySolver()
        # Campaign shape -> (signature, request); see plan().
        self._plans: dict[tuple, tuple[tuple, DeadlineProblem | BudgetRequest]] = {}

    # ------------------------------------------------------------------
    # Planning inputs
    # ------------------------------------------------------------------
    def planning_slice(self, spec: CampaignSpec) -> np.ndarray:
        """The per-interval arrival forecast ``spec`` plans against."""
        if self.planning == "stationary":
            level = float(self.planning_means.mean())
            return np.full(spec.horizon_intervals, level)
        start = spec.submit_interval
        return self.planning_means[start : start + spec.horizon_intervals].copy()

    def planning_problem(self, spec: CampaignSpec) -> DeadlineProblem:
        """Build the deadline instance a campaign is solved against."""
        if spec.kind != DEADLINE:
            raise ValueError(f"campaign {spec.campaign_id!r} is not a deadline campaign")
        return DeadlineProblem(
            num_tasks=spec.num_tasks,
            arrival_means=self.planning_slice(spec),
            acceptance=self.acceptance,
            price_grid=spec.price_grid(),
            penalty=PenaltyScheme(per_task=spec.penalty_per_task),
            truncation_eps=self.truncation_eps,
        )

    def budget_request(self, spec: CampaignSpec) -> BudgetRequest:
        """Build the fixed-budget instance a campaign is solved against."""
        if spec.kind != BUDGET:
            raise ValueError(f"campaign {spec.campaign_id!r} is not a budget campaign")
        assert spec.budget is not None  # CampaignSpec validates this
        return BudgetRequest(
            num_tasks=spec.num_tasks,
            budget=spec.budget,
            acceptance=self.acceptance,
            price_grid=spec.price_grid(),
        )

    def plan(
        self, spec: CampaignSpec
    ) -> tuple[tuple, DeadlineProblem | BudgetRequest]:
        """A campaign shape's cache signature and solve request, memoised.

        The request is :meth:`budget_request` or :meth:`planning_problem`
        of ``spec``.  The memo key is exactly the spec fields those read
        (the acceptance model, forecast and truncation threshold are fixed
        per planner), so a repeated shape costs a dict lookup instead of
        building, validating and hashing a fresh request.  Static
        admissions and the gateway's quotes resolve through it; adaptive
        admissions build their own problem for their repricer.  The memo
        is dropped with the cache it fronts (:meth:`clear_plans`, called
        by ``EngineBase.start``) and starts over past
        ``_PLAN_MEMO_LIMIT`` shapes.
        """
        if spec.kind == BUDGET:
            key = (BUDGET, spec.num_tasks, spec.max_price, spec.budget)
            build = self.budget_request
        else:
            key = (
                DEADLINE,
                spec.num_tasks,
                spec.max_price,
                spec.penalty_per_task,
                spec.horizon_intervals,
                spec.submit_interval if self.planning == "sliced" else None,
            )
            build = self.planning_problem
        plan = self._plans.get(key)
        if plan is None:
            request = build(spec)
            plan = (request.signature(), request)
            if len(self._plans) >= _PLAN_MEMO_LIMIT:
                self._plans.clear()
            self._plans[key] = plan
        return plan

    def clear_plans(self) -> None:
        """Forget every memoised plan (a new serving session starts)."""
        self._plans.clear()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, spec: CampaignSpec) -> _LiveCampaign:
        """Scalar path: solve (or fetch) one campaign's policy and go live."""
        if spec.kind == BUDGET:
            signature, request = self.plan(spec)
            allocation, hit = self.cache.get_or_solve(
                signature,
                lambda: solve_budget_hull(
                    request.num_tasks,
                    request.budget,
                    request.acceptance,
                    request.price_grid,
                ),
            )
            runtime: PricingRuntime = SemiStaticRuntime(allocation.as_semi_static())
            return _LiveCampaign(spec, runtime, hit, 0 if hit else 1)
        if spec.adaptive:
            # Adaptive campaigns own their re-planning loop (and its private
            # suffix-solve cache); the shared cache only serves static ones.
            repricer = AdaptiveRepricer(
                self.planning_problem(spec), resolve_every=spec.resolve_every
            )
            return _LiveCampaign(spec, repricer, False, 0)
        signature, problem = self.plan(spec)
        policy, hit = self.cache.get_or_solve(
            signature, lambda: solve_deadline(problem)
        )
        return _LiveCampaign(spec, TablePolicyRuntime(policy), hit, 0 if hit else 1)

    def admit_many(self, specs: list[CampaignSpec]) -> list[_LiveCampaign]:
        """Batch path: admit one tick's campaigns in stacked solve passes.

        All static-deadline cache misses of the tick are solved in one
        call to :func:`~repro.core.batch.deadline.solve_deadline_batch`,
        and all budget misses in one call to
        :func:`~repro.core.batch.budget.solve_budget_batch`.  Adaptive
        campaigns keep their private re-planning loops and are admitted
        individually.  Returns live campaigns in submission order, priced
        identically to the scalar path.
        """
        if not self.batch_solve or len(specs) <= 1:
            return [self.admit(spec) for spec in specs]
        live: list[_LiveCampaign | None] = [None] * len(specs)
        deadline_items: list[tuple[tuple, DeadlineProblem]] = []
        deadline_slots: list[int] = []
        budget_items: list[tuple[tuple, BudgetRequest]] = []
        budget_slots: list[int] = []
        for i, spec in enumerate(specs):
            if spec.kind == BUDGET:
                budget_items.append(self.plan(spec))
                budget_slots.append(i)
            elif spec.adaptive:
                live[i] = self.admit(spec)
            else:
                deadline_items.append(self.plan(spec))
                deadline_slots.append(i)
        if deadline_items:
            resolved = self.cache.get_or_solve_many(
                deadline_items, self.batch_solver.solve_deadline_many
            )
            for i, (policy, hit) in zip(deadline_slots, resolved):
                live[i] = _LiveCampaign(
                    specs[i], TablePolicyRuntime(policy), hit, 0 if hit else 1
                )
        if budget_items:
            resolved = self.cache.get_or_solve_many(
                budget_items, self.batch_solver.solve_budget_many
            )
            for i, (allocation, hit) in zip(budget_slots, resolved):
                live[i] = _LiveCampaign(
                    specs[i],
                    SemiStaticRuntime(allocation.as_semi_static()),
                    hit,
                    0 if hit else 1,
                )
        return live  # type: ignore[return-value]
