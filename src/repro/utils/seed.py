"""Deterministic seeding helpers.

Every stochastic component in the reproduction accepts an explicit
``numpy.random.Generator``; these helpers create and checkpoint them so
experiments are reproducible end to end.
"""

from __future__ import annotations

import copy
from typing import Any, Dict

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Create a generator from an integer seed."""
    return np.random.default_rng(seed)


def capture_rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """Snapshot a generator's bit-generator state.

    The returned dict is a deep copy of ``rng.bit_generator.state`` — plain
    ints and strings only (PCG64 counters are arbitrary-precision python
    ints), so it survives ``json.dumps``/``json.loads`` losslessly and can
    ride inside a checkpoint manifest.
    """
    return copy.deepcopy(rng.bit_generator.state)


def restore_rng_state(rng: np.random.Generator, state: Dict[str, Any]) -> np.random.Generator:
    """Restore a state captured by :func:`capture_rng_state` in place.

    After restoration ``rng`` produces the exact draw sequence it would have
    produced from the capture point — the property crash/resume equivalence
    rests on.  The bit-generator kinds must match (a PCG64 state cannot be
    loaded into an MT19937 generator).
    """
    expected = type(rng.bit_generator).__name__
    found = state.get("bit_generator")
    if found != expected:
        raise ValueError(
            f"rng state is for bit generator {found!r}, generator uses {expected!r}"
        )
    rng.bit_generator.state = copy.deepcopy(state)
    return rng
