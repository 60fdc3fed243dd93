"""repro.service -- prediction-as-a-service over the sweep engine.

Three layers, each usable on its own:

* :mod:`repro.service.requests` -- typed request specs (sweep / table /
  figure / whatif), deterministic job identity derived from
  :func:`repro.core.sweep.compute_cache_key`, grid-size cost estimation
  and artifact rendering.
* :mod:`repro.service.jobs` -- the :class:`JobManager`: bounded queue,
  submission dedup, the QUEUED/RUNNING/DONE/FAILED/CANCELLED lifecycle
  behind one lock, store-backed resume of half-done jobs.
* :mod:`repro.service.api` -- the stdlib HTTP front-end
  (``repro serve``) with ``/health`` and ``/stats`` wired straight into
  :mod:`repro.obs`.

:mod:`repro.service.campaign` fans a YAML scenario file out into jobs
(``repro campaign run``), always against a result store (the engine's,
or ``<out>/store``), so a rerun resumes and restores artifacts, with a
dependency-aware parallel scheduler (``needs``).

When the engine carries a :class:`repro.store.ResultStore`, the job
manager also publishes every finished artifact under
:func:`~repro.service.requests.artifact_store_key` and serves repeat
submissions straight from the store (QUEUED -> DONE without occupying
a worker), so a restarted service answers warm immediately.
"""

from .api import ServiceServer, create_server, serve
from .campaign import (
    Scenario,
    ScenarioError,
    ScenarioJob,
    load_scenario,
    plan_campaign,
    run_campaign,
)
from .jobs import TRANSITIONS, IllegalTransition, Job, JobManager, JobState, QueueFull
from .requests import (
    JobRequest,
    RequestError,
    artifact_store_key,
    estimate,
    execute_request,
    parse_request,
    request_configs,
    request_job_id,
)

__all__ = [
    "ServiceServer",
    "create_server",
    "serve",
    "Scenario",
    "ScenarioError",
    "ScenarioJob",
    "load_scenario",
    "plan_campaign",
    "run_campaign",
    "TRANSITIONS",
    "IllegalTransition",
    "Job",
    "JobManager",
    "JobState",
    "QueueFull",
    "JobRequest",
    "RequestError",
    "artifact_store_key",
    "estimate",
    "execute_request",
    "parse_request",
    "request_configs",
    "request_job_id",
]
