import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from capmdp import StateSpace, TabularMMDP

settings.register_profile("ci", deadline=None, max_examples=50)
settings.load_profile("ci")

# filled by test_acceptance; echoed after the run so the verdicts are always
# visible even though passing tests have their stdout captured
acceptance_verdicts: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)


@pytest.fixture
def two_state_chain() -> TabularMMDP:
    """The hand-solved two-state chain of data/two_state_chain.json."""
    doc = json.loads((Path(__file__).parent / "data" / "two_state_chain.json").read_text())
    return TabularMMDP(
        states=StateSpace(np.asarray(doc.pop("features"), dtype=float)), **doc
    )


@pytest.fixture
def same_mdp():
    """(a, b) -> whether two TabularMMDPs hold the same contents in the same layout."""

    def same(a: TabularMMDP, b: TabularMMDP) -> bool:
        return a.states.equals(b.states) and all(
            np.array_equal(getattr(a, f.name), getattr(b, f.name))
            for f in fields(TabularMMDP)
            if f.name != "states"
        )

    return same
