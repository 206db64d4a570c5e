"""SearchContext.absorb: folding disjoint explorations together."""

from __future__ import annotations

from repro import BugKind, BugReport, SearchContext, SearchLimits, ThreadId


def make_context(states=None, bugs=(), executions=0, transitions=0, history=()):
    ctx = SearchContext(SearchLimits())
    ctx.states = dict(states or {})
    for bug in bugs:
        ctx.bugs[bug.signature] = bug
    ctx.executions = executions
    ctx.transitions = transitions
    ctx.history = list(history)
    return ctx


def fold(*parts):
    """A fresh context with ``parts`` absorbed in order."""
    ctx = SearchContext(SearchLimits())
    for part in parts:
        ctx.absorb(part)
    return ctx


def first_bug(ctx):
    return min(ctx.bugs.values(), key=lambda b: (b.preemptions, str(b.kind)))


def tid(*path, label=""):
    return ThreadId(tuple(path), label)


def bug(kind=BugKind.ASSERTION, message="boom", preemptions=0, schedule=()):
    return BugReport(
        kind=kind, message=message, preemptions=preemptions, schedule=tuple(schedule)
    )


class TestMerge:
    def test_sums_and_unions(self):
        a = make_context(states={1: 0, 2: 1}, executions=3, transitions=30)
        b = make_context(states={2: 0, 3: 2}, executions=4, transitions=40)
        merged = fold(a, b)
        assert merged.executions == 7
        assert merged.transitions == 70
        assert merged.states == {1: 0, 2: 0, 3: 2}

    def test_bug_dedup_keeps_minimal_preemptions(self):
        worse = bug(preemptions=2, schedule=(tid(0), tid(1)))
        better = bug(preemptions=1, schedule=(tid(1), tid(0)))
        for parts in ((worse, better), (better, worse)):
            merged = fold(*(make_context(bugs=[b]) for b in parts))
            assert len(merged.bugs) == 1
            assert first_bug(merged).preemptions == 1

    def test_bug_dedup_tie_break_is_order_independent(self):
        x = bug(preemptions=1, schedule=(tid(0), tid(1)))
        y = bug(preemptions=1, schedule=(tid(1), tid(0)))
        one = fold(make_context(bugs=[x]), make_context(bugs=[y]))
        two = fold(make_context(bugs=[y]), make_context(bugs=[x]))
        assert first_bug(one).identity == first_bug(two).identity
        assert first_bug(one).identity == x.identity  # lexicographically smaller

    def test_distinct_defects_both_survive(self):
        race = bug(kind=BugKind.DATA_RACE, message="race on x", preemptions=2)
        dead = bug(kind=BugKind.DEADLOCK, message="deadlock", preemptions=1)
        merged = fold(make_context(bugs=[race]), make_context(bugs=[dead]))
        assert len(merged.bugs) == 2
        assert first_bug(merged).kind == BugKind.DEADLOCK  # fewest preemptions first

    def test_history_concatenates_with_offsets(self):
        a = make_context(executions=2, history=[(1, 5), (2, 9)])
        b = make_context(executions=2, history=[(1, 4), (2, 12)])
        merged = fold(a, b)
        assert [e for e, _ in merged.history] == [1, 2, 3, 4]
        distinct = [s for _, s in merged.history]
        assert distinct == sorted(distinct)  # forced monotone
