"""A deterministic gate on the cost of state fingerprints.

``SearchContext.visit`` fingerprints the live execution after every
transition, and each object a step touched is digested again.  An
object digest looks its ``(name, snapshot)`` up in a process-wide memo
before it encodes; only a miss (or a snapshot the memo cannot key
exactly) encodes and hashes.  This test counts those encodes per
transition on two certify workloads, starting from an empty memo.
Timing would not show a regression on a noisy host; this count does.
"""

from __future__ import annotations

from repro import ChessChecker
from repro.core import objects
from repro.programs import resolve_builtin

#: Measured at 0.136 (2,918 encodes over 21,451 transitions): 19 on
#: bluetooth:fixed, whose snapshots all memoise, and 2,899 on wsq, most
#: of them variables that hold tuples.  Without the memo every object
#: digest encodes: about 1.65 per transition.
MAX_ENCODES_PER_TRANSITION = 0.2

WORKLOADS = (("wsq", 2, 519), ("bluetooth:fixed", 2, 1166))


def test_object_digest_encodes_per_transition(monkeypatch):
    monkeypatch.setattr(objects, "_memo", {})
    counts = {"digests": 0, "encodes": 0}
    digest, encode_digest = objects.SharedObject.digest, objects.digest

    def counted_digest(self):
        counts["digests"] += 1
        return digest(self)

    def counted_encode_digest(data):
        counts["encodes"] += 1
        return encode_digest(data)

    monkeypatch.setattr(objects.SharedObject, "digest", counted_digest)
    monkeypatch.setattr(objects, "digest", counted_encode_digest)
    transitions = 0
    for spec, bound, executions in WORKLOADS:
        result = ChessChecker(resolve_builtin(spec)).check(max_bound=bound)
        assert result.executions == executions, f"{spec} drifted; retune the bound"
        transitions += result.transitions
    # Every transition digests at least one object, so the memo is used.
    assert counts["digests"] >= transitions
    per_transition = counts["encodes"] / transitions
    assert per_transition <= MAX_ENCODES_PER_TRANSITION, counts

