"""The persisted identities of a check, pinned.

A result-cache key, a checkpoint fingerprint, a job's identity, the
journal's ``submitted`` record and the wire's submit body all outlive
the process that wrote them: a cache entry must still hit, a
checkpoint still resume and a journal still fold after an upgrade, and
a client and a daemon of different builds must agree on a job's
identity.  Each is pinned here, for four fixed plans, as the bytes an
earlier version of the code wrote.  The test calls only the
long-standing keyword forms (``result_cache_key``,
``search_fingerprint``, ``JobQueue.submit``, ``submit_to_wire``), so
the same file passes against that version too.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import SearchLimits
from repro.net.wire import submit_to_wire
from repro.programs import resolve_builtin
from repro.service.cache import result_cache_key
from repro.service.checkpoint import search_fingerprint
from repro.service.jobs import JOURNAL_NAME, JobQueue

#: (spec, flat job fields, analysis).
PLANS = [
    ("bluetooth", {}, False),
    (
        "wsq:pop-race",
        {"max_bound": 2, "stop_on_first_bug": True, "max_executions": 500},
        True,
    ),
    (
        "dryad:use-after-free",
        {"max_bound": 1, "workers": 2, "max_transitions": 10000},
        False,
    ),
    ("toy:racy-counter", {"max_bound": 3, "state_caching": True}, False),
]

#: spec -> every persisted identity of its plan, as written before a
#: check's settings became one ``CheckPlan`` (the fingerprint as the
#: SHA-256 of its sorted JSON).
GOLDEN = {
    "bluetooth": {
        "cache_key": "2200344c84bd47b46c6a38ea72144a8bce3b7e31ace9be116c95f1cf690ea110",
        "fingerprint": "b5b9d1e2bbe5d587cc9801f310be13dd7c12cfbf0cb6c3df5f11d2d7430b336f",
        "identity": "d771cc3e0aeb7a7c942a9059bd32b51636b896c72cdb1ba17177992b12a56ca1",
        "submitted": '{"event": "submitted", "job": {"id": "job-000001", "max_bound": null, "max_executions": null, "max_transitions": null, "priority": 4, "seq": 1, "spec": "bluetooth", "state_caching": false, "stop_on_first_bug": false, "workers": null}}',
        "wire": '{"format": "repro-net-wire", "max_bound": null, "max_executions": null, "max_transitions": null, "priority": 4, "spec": "bluetooth", "state_caching": false, "stop_on_first_bug": false, "version": 1, "workers": null}',
    },
    "wsq:pop-race": {
        "cache_key": "f839b8a519239a3e65f1863e959aecdb800dce43f4648b66997aeb6f009d82c3",
        "fingerprint": "40ef9a2a9e34b434c13c68fe353d84996814d5e004007025526a5520ab31f6c9",
        "identity": "19504f8c5a39ae45dc1f1d24e8f081b8ce445a28f6e1ff8dc1ff6995a36a2672",
        "submitted": '{"event": "submitted", "job": {"id": "job-000001", "max_bound": 2, "max_executions": 500, "max_transitions": null, "priority": 4, "seq": 1, "spec": "wsq:pop-race", "state_caching": false, "stop_on_first_bug": true, "workers": null}}',
        "wire": '{"format": "repro-net-wire", "max_bound": 2, "max_executions": 500, "max_transitions": null, "priority": 4, "spec": "wsq:pop-race", "state_caching": false, "stop_on_first_bug": true, "version": 1, "workers": null}',
    },
    "dryad:use-after-free": {
        "cache_key": "719ca0901b722a79db0148cfba77bf2ad42845378c08c2c9841f7b3d2470d449",
        "fingerprint": "ba8710a1589cf75856904f961886a3aafebf4540cd4d685a5a91c5db2a951400",
        "identity": "714a5bf4ae84f637a5b237c252241acc7af199f148111b0dd11bda2fd15b2ecf",
        "submitted": '{"event": "submitted", "job": {"id": "job-000001", "max_bound": 1, "max_executions": null, "max_transitions": 10000, "priority": 4, "seq": 1, "spec": "dryad:use-after-free", "state_caching": false, "stop_on_first_bug": false, "workers": 2}}',
        "wire": '{"format": "repro-net-wire", "max_bound": 1, "max_executions": null, "max_transitions": 10000, "priority": 4, "spec": "dryad:use-after-free", "state_caching": false, "stop_on_first_bug": false, "version": 1, "workers": 2}',
    },
    "toy:racy-counter": {
        "cache_key": "bca9406bfacaa47045b667bc2656d2dba45c8ac9b8756e5e4411a110eeb5adfc",
        "fingerprint": "8e6618fb892c220b0eeaca768d4c00bd23c818fe6974c447af6f41793adfc4d5",
        "identity": "cdfb561e3edc3f762d0dfd78cb11de3e9c34b5424438cf2a4ff03eb05927bf36",
        "submitted": '{"event": "submitted", "job": {"id": "job-000001", "max_bound": 3, "max_executions": null, "max_transitions": null, "priority": 4, "seq": 1, "spec": "toy:racy-counter", "state_caching": true, "stop_on_first_bug": false, "workers": null}}',
        "wire": '{"format": "repro-net-wire", "max_bound": 3, "max_executions": null, "max_transitions": null, "priority": 4, "spec": "toy:racy-counter", "state_caching": true, "stop_on_first_bug": false, "version": 1, "workers": null}',
    },
}


def persisted(tmp_path, spec, fields, analysis):
    """Every persisted identity of one plan."""
    program = resolve_builtin(spec)
    limits = SearchLimits(
        max_executions=fields.get("max_executions"),
        max_transitions=fields.get("max_transitions"),
        stop_on_first_bug=fields.get("stop_on_first_bug", False),
    )
    state_caching = fields.get("state_caching", False)
    key = result_cache_key(
        program,
        None,
        limits=limits,
        max_bound=fields.get("max_bound"),
        state_caching=state_caching,
        analysis=analysis,
    )
    fingerprint = search_fingerprint(
        program, None, state_caching=state_caching, analysis=analysis
    )
    job = JobQueue(tmp_path).submit(spec, priority=4, **fields)
    return {
        "cache_key": key,
        "fingerprint": hashlib.sha256(
            json.dumps(fingerprint, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "identity": job.identity(),
        "submitted": (tmp_path / JOURNAL_NAME).read_text().rstrip("\n"),
        "wire": json.dumps(submit_to_wire(spec, priority=4, **fields), sort_keys=True),
    }


@pytest.mark.parametrize("spec, fields, analysis", PLANS, ids=[p[0] for p in PLANS])
def test_persisted_identities_are_unchanged(tmp_path, spec, fields, analysis):
    assert persisted(tmp_path, spec, fields, analysis) == GOLDEN[spec]
