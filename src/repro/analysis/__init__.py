"""Deployment analysis tooling.

* :mod:`repro.analysis.planner` — a deployment planning report: given
  the RSU volumes a rollout will face, derive the recommended
  parameters and forecast privacy, accuracy, memory and uplink cost
  for every RSU and pair class, before any hardware is installed.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "DeploymentPlan": ".planner",
        "plan_deployment": ".planner",
    },
)
