"""Multi-cloud bursting: choosing *where* among several external clouds.

Section I poses the full question — "given a workload, how do we determine
when (a scheduler decision under resource variation), where (to which
cloud) and how much (the quantum of work) to burst out" — and the
introduction anticipates that "one could possibly choose from a pool of
Cloud Providers at run-time". The paper evaluates a single static EC; this
module implements the "where" extension on top of the same machinery —
every site, the primary included, is one entry of ``SystemState.sites``:

* :class:`MultiECGreedyScheduler` — Algorithm 1 generalised: place each
  job where it finishes earliest among IC and *every* EC site;
* :class:`MultiECOrderPreservingScheduler` — Algorithm 2 generalised:
  burst to the earliest-completing site whose round trip fits the slack.
"""

from __future__ import annotations

from ..common import Placement
from ..workload.document import Job
from .base import BatchPlan, Decision, Scheduler, SystemState
from .estimators import EcEstimate, FinishTimeEstimator
from .slack import SlackLedger

__all__ = [
    "MultiECGreedyScheduler",
    "MultiECOrderPreservingScheduler",
]


def _best_site(
    estimator: FinishTimeEstimator, job: Job, est_proc: float, state: SystemState
) -> tuple[int, EcEstimate]:
    """Earliest-completing EC site for ``job`` under current plans."""
    best_site, best = 0, estimator.ft_ec(job, state, est_proc)
    for site in range(1, len(state.sites)):
        est = estimator.ft_ec(job, state, est_proc, site=site)
        if est.completion < best.completion:
            best_site, best = site, est
    return best_site, best


class MultiECGreedyScheduler(Scheduler):
    """Algorithm 1 over a pool of external clouds."""

    name = "MultiGreedy"

    def __init__(self, estimator: FinishTimeEstimator) -> None:
        self.estimator = estimator

    def plan(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        plan = BatchPlan()
        for job in jobs:
            est_proc = self.estimator.est_proc_time(job)
            t_ic = self.estimator.ft_ic(job, state, est_proc)
            site, ec = _best_site(self.estimator, job, est_proc, state)
            if t_ic <= ec.completion:
                state.commit_ic(t_ic)
                plan.decisions.append(Decision(job, Placement.IC, est_proc, t_ic))
            else:
                state.commit_ec(job, ec.exec_end, ec.completion, site=site)
                plan.decisions.append(
                    Decision(job, Placement.EC, est_proc, ec.completion, ec_site=site)
                )
        return plan


class MultiECOrderPreservingScheduler(Scheduler):
    """Algorithm 2 over a pool of external clouds.

    The slack test is unchanged (Eq. 2); the candidate round trip is the
    best over all sites, so adding a site can only widen the set of jobs
    that burst, never violate ordering by estimate.
    """

    name = "MultiOp"

    def __init__(self, estimator: FinishTimeEstimator, slack_margin: float = 0.0) -> None:
        self.estimator = estimator
        self.slack_margin = slack_margin

    def plan(self, jobs: list[Job], state: SystemState) -> BatchPlan:
        ledger = SlackLedger(state.pending_completions, now=state.now)
        plan = BatchPlan()
        for job in jobs:
            est_proc = self.estimator.est_proc_time(job)
            site, ec = _best_site(self.estimator, job, est_proc, state)
            if ledger.can_burst(ec.completion, margin=self.slack_margin):
                state.commit_ec(job, ec.exec_end, ec.completion, site=site)
                ledger.add(ec.completion)
                plan.decisions.append(
                    Decision(job, Placement.EC, est_proc, ec.completion, ec_site=site)
                )
            else:
                t_ic = self.estimator.ft_ic(job, state, est_proc)
                state.commit_ic(t_ic)
                ledger.add(t_ic)
                plan.decisions.append(Decision(job, Placement.IC, est_proc, t_ic))
        return plan
