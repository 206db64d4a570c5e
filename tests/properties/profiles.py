"""Example budgets for the property tests.

Tier-1 runs each property with a small, fixed number of examples.
CI also runs this directory under the ``ci`` Hypothesis profile
(``HYPOTHESIS_PROFILE=ci``, registered in ``tests/conftest.py``), which
raises every property to :data:`CI_EXAMPLES` examples.
"""

from __future__ import annotations

import os

#: Examples per property under the ``ci`` profile.
CI_EXAMPLES = 200

CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"


def examples(tier1: int) -> int:
    """``tier1`` examples, or :data:`CI_EXAMPLES` under the ``ci`` profile."""
    return max(tier1, CI_EXAMPLES) if CI else tier1
