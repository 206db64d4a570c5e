"""Probabilistic concurrency testing (PCT) -- a follow-up baseline.

The direct successor to this paper's line of work (Burckhardt,
Kothari, Musuvathi & Nagarakatte, ASPLOS 2010) randomizes over the
same structure ICB enumerates: it schedules by random thread
*priorities* and lowers the running thread's priority at ``d - 1``
random *change points*, guaranteeing that any bug of depth ``d`` is
found with probability at least ``1 / (n * k^(d-1))`` per run.  Bug
depth closely tracks this paper's preemption count: a depth-``d`` bug
is one needing ``d - 1`` scheduling constraints, i.e. roughly
``d - 1`` preemptions.

Included as an extension: the repository's Figure 2 reproduction shows
uniform random scheduling to be a strong coverage baseline (see
EXPERIMENTS.md), and PCT is the principled way to randomize with a
guarantee.  It runs on the same :class:`StateSpace` interface as every
other strategy.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from ..core.thread import ThreadId
from ..core.transition import StateSpace
from .strategy import SearchContext, Strategy


class PCTScheduler(Strategy):
    """Randomized priority scheduling with ``depth - 1`` change points.

    Args:
        depth: target bug depth ``d`` (1 = ordering bugs needing no
            preemption, 2 = single-preemption bugs, ...).
        executions: number of randomized runs.
        max_steps: estimate of the maximum execution length ``k`` used
            to place change points (runs longer than this simply get
            no further priority changes).
        seed: PRNG seed for reproducibility.
    """

    name = "pct"

    def __init__(
        self,
        depth: int = 2,
        executions: int = 1000,
        max_steps: int = 200,
        seed: int = 0,
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if executions < 1:
            raise ValueError("executions must be positive")
        if max_steps < 1:
            raise ValueError("max_steps must be positive")
        self.depth = depth
        self.executions = executions
        self.max_steps = max_steps
        self.seed = seed

    def _search(
        self, space: StateSpace, ctx: SearchContext, extras: Dict[str, Any]
    ) -> None:
        rng = random.Random(self.seed)
        extras["depth"] = self.depth
        if ctx.obs is not None:
            # PCT has no iterating bound; report the target bug depth
            # so dashboards show what guarantee this run provides.
            ctx.obs.bound_started(self.depth, self.executions)
        for _ in range(self.executions):
            self._one_run(space, ctx, rng)

    def _one_run(
        self, space: StateSpace, ctx: SearchContext, rng: random.Random
    ) -> None:
        state = space.initial_state()
        if space.is_terminal(state):
            ctx.note_terminal(space, state)
            return
        # d - 1 change points among the anticipated steps.
        change_points = set(
            rng.sample(range(1, self.max_steps + 1), min(self.depth - 1, self.max_steps))
        )
        priorities: Dict[ThreadId, float] = {}
        #: Priority values below every initial one, assigned in order
        #: at change points (the PCT construction).
        demotions: List[float] = [
            -(index + 1) for index in range(self.depth - 1)
        ]
        demoted = 0
        step = 0
        while not space.is_terminal(state):
            step += 1
            enabled = space.enabled(state)
            for tid in enabled:
                if tid not in priorities:
                    # Fresh threads draw a random high priority.
                    priorities[tid] = rng.random()
            tid = max(enabled, key=lambda t: priorities[t])
            state = space.execute(state, tid)
            ctx.visit(space, state)
            if step in change_points and demoted < len(demotions):
                priorities[tid] = demotions[demoted]
                demoted += 1
        ctx.note_terminal(space, state)
