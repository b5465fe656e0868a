"""Counter-based random streams.

Every random draw in the package comes from a Philox stream keyed on
(seed, purpose, indices), so any value can be regenerated in isolation
without replaying the draws that happened to precede it.
"""

from __future__ import annotations

import numpy as np

# Stream purposes. Values are part of the on-disk reproducibility story:
# changing them changes every generated dataset and initialization.
CLASS_TEMPLATE = 0
STYLE_MIXER = 1
LABEL = 2
STYLE = 3
NOISE = 4
SHUFFLE = 5
PARAM_INIT = 6
PROBE_INIT = 7
PROBE_SHUFFLE = 8

_MASK64 = (1 << 64) - 1


def _key(seed: int, purpose: int, a: int, b: int) -> np.ndarray:
    if not 0 <= a < (1 << 40) or not 0 <= b < (1 << 20):
        raise ValueError(f"stream index out of range: a={a}, b={b}")
    token = (purpose << 60) | (a << 20) | b
    return np.array([seed & _MASK64, token & _MASK64], dtype=np.uint64)


def stream(seed: int, purpose: int, a: int = 0, b: int = 0) -> np.random.Generator:
    """Return the generator for one (seed, purpose, a, b) stream.

    `a` must fit in 40 bits and `b` in 20, which covers sample indices,
    epochs, modalities, and parameter ordinals with room to spare.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, purpose, a, b)))


def per_index(seed: int, purpose: int, count: int, method: str, *args, b: int = 0) -> list:
    """[stream(seed, purpose, i, b).<method>(*args) for i in range(count)].

    One Philox bit generator is re-keyed for each index, which yields exactly
    the draws of a fresh stream without seeding an unused SeedSequence from
    OS entropy every time. The shared generator never leaves this function:
    callers get the draws only.
    """
    bitgen = np.random.Philox(key=_key(seed, purpose, 0, b))
    draw = getattr(np.random.Generator(bitgen), method)
    # A snapshot taken before any draw: zero counter, empty buffer. Setting
    # it copies the values in, so every index starts from this state.
    state = bitgen.state
    draws = []
    for i in range(count):
        state["state"]["key"] = _key(seed, purpose, i, b)
        bitgen.state = state
        draws.append(draw(*args))
    return draws
