"""The versioned wire format: strict envelopes, submit-body schema
validation, and the content-addressed job identity that makes wire
resubmits idempotent."""

from __future__ import annotations

import pytest

from repro.search.plan import CheckPlan
from repro.service.jobs import Job
from repro.net.wire import (
    WIRE_FORMAT,
    WIRE_VERSION,
    WireError,
    check_envelope,
    envelope,
    error_body,
    job_to_wire,
    submit_from_wire,
    submit_to_wire,
)


def test_envelope_stamps_format_and_version():
    body = envelope({"x": 1})
    assert body["format"] == WIRE_FORMAT
    assert body["version"] == WIRE_VERSION
    assert body["x"] == 1
    assert check_envelope(body) is body


@pytest.mark.parametrize(
    "bad",
    [
        "not an object",
        {},
        {"format": "something-else", "version": WIRE_VERSION},
        {"format": WIRE_FORMAT, "version": WIRE_VERSION + 1},
        {"format": WIRE_FORMAT},
    ],
)
def test_check_envelope_rejects_foreign_bodies(bad):
    with pytest.raises(WireError):
        check_envelope(bad)


def test_error_body_carries_message_and_status():
    body = error_body("boom", 404)
    assert check_envelope(body)["error"] == {"message": "boom", "status": 404}


def test_submit_round_trip():
    body = submit_to_wire(
        "wsq:pop-race",
        priority=3,
        max_bound=2,
        workers=1,
        stop_on_first_bug=True,
        max_executions=100,
        state_caching=True,
    )
    kwargs = submit_from_wire(body)
    assert kwargs == {
        "spec": "wsq:pop-race",
        "priority": 3,
        "max_bound": 2,
        "workers": 1,
        "stop_on_first_bug": True,
        "max_executions": 100,
        "max_transitions": None,
        "state_caching": True,
    }


def test_submit_defaults_round_trip_minimal():
    kwargs = submit_from_wire(submit_to_wire("toy:stats-race"))
    assert kwargs["spec"] == "toy:stats-race"
    assert kwargs["max_bound"] is None
    assert kwargs["stop_on_first_bug"] is False


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda b: b.pop("spec"), "missing required field 'spec'"),
        (lambda b: b.update(spec=7), "field 'spec' must be str"),
        (lambda b: b.update(priority="high"), "field 'priority' must be int"),
        (lambda b: b.update(max_bound=True), "field 'max_bound' must be int?"),
        (lambda b: b.update(stop_on_first_bug=1), "must be bool"),
        (lambda b: b.update(bogus=1), "unknown field 'bogus'"),
    ],
)
def test_submit_schema_violations_name_the_offender(mutate, fragment):
    body = submit_to_wire("toy:stats-race")
    mutate(body)
    with pytest.raises(WireError) as excinfo:
        submit_from_wire(body)
    assert fragment in str(excinfo.value)


def test_job_to_wire_carries_the_content_address():
    job = Job(id="job-000007", spec="bluetooth", plan=CheckPlan(max_bound=2), seq=7)
    data = job_to_wire(job)
    assert data["id"] == "job-000007"
    assert data["identity"] == job.identity()
    assert len(data["identity"]) == 64


def test_identity_names_the_work_not_the_submission():
    a = Job(id="a", spec="bluetooth", plan=CheckPlan(max_bound=2), priority=0, seq=1)
    b = Job(id="b", spec="bluetooth", plan=CheckPlan(max_bound=2), priority=9, seq=5)
    c = Job(id="c", spec="bluetooth", plan=CheckPlan(max_bound=1))
    # Same work, different submission: same address.
    assert a.identity() == b.identity()
    # Different knobs are different work.
    assert a.identity() != c.identity()


@pytest.mark.parametrize(
    "fields, fragment",
    [
        ({"workers": 0, "state_caching": True}, "workers must be at least 1"),
        ({"workers": 2, "state_caching": True}, "state_caching is per-process"),
        ({"max_bound": -1}, "max_bound must be non-negative"),
    ],
)
def test_submit_refuses_a_plan_the_checker_refuses(fields, fragment):
    body = submit_to_wire("toy:stats-race")
    body.update(fields)
    with pytest.raises(WireError, match=fragment):
        submit_from_wire(body)
