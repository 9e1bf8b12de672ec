"""The environment's one extension point: an ordered list of plugins.

Everything that watches (or, for the policy plane, steers) a run attaches
to :class:`~repro.sim.environment.CloudBurstEnvironment` as an
:class:`EnvPlugin` — the econ, obs and policy runtimes, the invariant
checker, the online broker and the fleet shard's tenant books. A plugin
overrides the hooks it cares about; :meth:`CloudBurstEnvironment.attach`
binds only those, so a hook no plugin overrides costs one empty loop.

Events a plane raises itself (an econ preemption, a broker verdict, a
converger tick) go to :meth:`CloudBurstEnvironment.emit`, which fans them
out in attach order; no plane calls another plane's hook by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, ClassVar, Optional

if TYPE_CHECKING:  # annotations only; the environment imports this module
    from ..policy.converge import ConvergenceDecision
    from .tracing import JobRecord, RunTrace

__all__ = ["EnvPlugin", "HOOKS"]


class EnvPlugin:
    """Base of everything attached to one environment (all hooks no-op).

    ``key`` names the plugin for :meth:`CloudBurstEnvironment.plugin`
    lookups and is the ``trace.metadata`` key its :meth:`finalize` block
    lands under. At most one plugin per key per environment.
    """

    key: ClassVar[str] = ""

    def on_plan(self, n_jobs: int, n_bursted: int, at_s: float) -> None:
        """A batch was planned: ``n_bursted`` of ``n_jobs`` go to the EC."""

    def on_admit(self, record: "JobRecord") -> None:
        """A unit entered the system (before dispatch)."""

    def on_admission(self, decision: str, reason: str, at_s: float) -> None:
        """The broker (or a shard's quota gate) issued one verdict."""

    def on_complete(self, record: "JobRecord") -> None:
        """A unit completed; ``record`` is final."""

    def on_preempt(self, elapsed_s: float, at_s: float) -> None:
        """A spot preemption killed ``elapsed_s`` seconds of execution."""

    def on_converge(self, decision: "ConvergenceDecision") -> None:
        """The policy converger finished one tick."""

    def finalize(self, trace: "RunTrace") -> Optional[dict[str, Any]]:
        """End of run; a returned block lands in ``trace.metadata[key]``."""
        return None


#: Hook names :meth:`CloudBurstEnvironment.attach` binds when overridden.
HOOKS = tuple(name for name in vars(EnvPlugin) if name.startswith("on_"))
