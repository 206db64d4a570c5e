"""Shared fixtures and helpers for the test suite.

Most tests build tiny programs inline; the helpers here remove the
boilerplate of running them under specific configurations.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro import (
    ChessChecker,
    Execution,
    ExecutionConfig,
    Program,
    RaceDetection,
    SchedulingPolicy,
)


#: ``HYPOTHESIS_PROFILE=ci`` runs the property tests with a larger
#: example budget (see tests/properties/profiles.py); tier-1 keeps
#: each test's own small budget.
settings.register_profile("ci", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_program(name, setup):
    """Tiny alias making inline test programs read naturally."""
    return Program(name, setup)


def run_round_robin(program, config=None):
    """Drive a program to completion without preemptions."""
    return Execution(program, config).run_round_robin()


def first_bug(program, max_bound=3, config=None):
    """The minimal-preemption bug of a program, or None."""
    return ChessChecker(program, config).find_bug(max_bound=max_bound)


@pytest.fixture
def every_access_config():
    """Engine config with a scheduling point after every access."""
    return ExecutionConfig(policy=SchedulingPolicy.EVERY_ACCESS)


@pytest.fixture
def no_race_config():
    """Engine config with race detection disabled."""
    return ExecutionConfig(race_detection=RaceDetection.NONE)


@pytest.fixture
def strict_race_config():
    """Engine config with the strict Appendix-A race definition."""
    return ExecutionConfig(strict_races=True)
