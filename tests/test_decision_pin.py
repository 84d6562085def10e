"""The RoLAG search makes the pinned decisions on two fixed corpora.

``tests/decision_pin.json`` holds, per job of the Angha slice and of
the TSVC kernels unrolled x8, the search counters, the node kinds of
what rolled and the hash of the optimized IR (see
``tests/decision_pin.py``).  Speed work on the search must leave every
one of them unchanged.
"""

import json
from pathlib import Path

import pytest

from tests.decision_pin import collect

PIN = Path(__file__).with_name("decision_pin.json")


@pytest.fixture(scope="module")
def current():
    return collect()


@pytest.mark.parametrize("corpus", ["angha", "tsvc_x8"])
def test_decisions_match_pin(corpus, current):
    pinned = json.loads(PIN.read_text())[corpus]
    got = current[corpus]
    assert list(got) == list(pinned)
    moved = [name for name in pinned if got[name] != pinned[name]]
    assert not moved, f"{len(moved)} job(s) changed decisions: {moved[:10]}"
