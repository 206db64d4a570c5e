"""The versioned JSON wire format of the HTTP checking service.

Every body on the wire -- request or response, success or error -- is
one JSON object stamped ``{"format": "repro-net-wire", "version": 1}``.
Versioning is strict the same way the trace and checkpoint formats
are: a peer speaking an unknown version is rejected up front rather
than misread, which matters once a fleet of daemons on different
hosts (and possibly different builds) shares one service root.

The submit body is validated field by field: its own fields against
:data:`SUBMIT_FIELDS`, the rest as the job's plan
(:class:`~repro.search.plan.CheckPlan`).  Unknown keys, wrong
primitive types, a missing ``spec`` and a plan the checker refuses are
each a :class:`WireError` naming the offender, so a malformed client
gets a 400 with a usable message instead of a daemon-side stack trace
or a job that fails every run.

Wire jobs carry the job's *content-addressed identity*
(:meth:`repro.service.jobs.Job.identity`) alongside its queue id:
the id names one submission, the identity names the work, and clients
retrying a submit can treat an echoed known identity as proof the
resubmit deduplicated rather than duplicated.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..errors import ReproError
from ..search.plan import TYPE_CHECKS, CheckPlan, PlanError
from ..service.jobs import Job

WIRE_FORMAT = "repro-net-wire"
WIRE_VERSION = 1


class WireError(ReproError):
    """A wire body violates the format (bad version, schema, types)."""


def envelope(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp ``payload`` with the wire format and version."""
    body = {"format": WIRE_FORMAT, "version": WIRE_VERSION}
    body.update(payload)
    return body


def check_envelope(data: Any, where: str = "body") -> Dict[str, Any]:
    """Validate the stamp on a decoded body; returns it unwrapped."""
    if not isinstance(data, dict):
        raise WireError(f"{where}: must be a JSON object")
    fmt = data.get("format")
    if fmt != WIRE_FORMAT:
        raise WireError(f"{where}: not a {WIRE_FORMAT} body (format={fmt!r})")
    version = data.get("version")
    if version != WIRE_VERSION:
        raise WireError(
            f"{where}: unsupported wire version {version!r} "
            f"(this build speaks {WIRE_VERSION})"
        )
    return data


def error_body(message: str, status: int) -> Dict[str, Any]:
    return envelope({"error": {"message": message, "status": status}})


#: The submit body's own fields: name -> (type tag, required).  The
#: rest of the body is the job's plan in its flat JSON form
#: (:meth:`~repro.search.plan.CheckPlan.from_json` checks it).
SUBMIT_FIELDS: Dict[str, Tuple[str, bool]] = {
    "spec": ("str", True),
    "priority": ("int", False),
}


def submit_from_wire(data: Any) -> Dict[str, Any]:
    """Validate a ``POST /v1/jobs`` body into ``JobQueue.submit`` kwargs."""
    body = check_envelope(data, "submit body")
    fields = {k: v for k, v in body.items() if k not in ("format", "version")}
    kwargs: Dict[str, Any] = {}
    for key, (tag, required) in SUBMIT_FIELDS.items():
        if key not in fields:
            if required:
                raise WireError(f"submit body: missing required field {key!r}")
            continue
        value = kwargs[key] = fields.pop(key)
        if not TYPE_CHECKS[tag](value):
            raise WireError(
                f"submit body: field {key!r} must be {tag}, "
                f"got {type(value).__name__}"
            )
    try:
        plan = CheckPlan.from_json(fields)
    except PlanError as exc:
        raise WireError(f"submit body: {exc}") from exc
    kwargs.update(plan.to_json())
    return kwargs


def submit_to_wire(spec: str, priority: int = 0, **fields: Any) -> Dict[str, Any]:
    """Build a ``POST /v1/jobs`` body (the client half of the schema);
    ``fields`` are the plan's flat JSON fields, refused here as the
    server would refuse them."""
    plan = CheckPlan.from_json(fields)
    return envelope({"spec": spec, "priority": priority, **plan.to_json()})


def job_to_wire(job: Job) -> Dict[str, Any]:
    """One job record as it travels: every Job field plus identity."""
    data = job.to_json()
    data["identity"] = job.identity()
    return data
