"""Buffered scalar uniforms on top of a numpy Generator.

Sampling one customer outcome needs one or two uniforms; calling
``Generator.random()`` per draw dominates the simulator's profile.  Pulling a
block at a time and handing out python floats keeps the draw sequence
identical to repeated scalar calls while being several times faster.
"""

from __future__ import annotations

_BLOCK = 4096


class BufferedRandom:
    """Wraps a numpy Generator; ``random()`` yields the same stream as the
    generator's own scalar ``random()`` calls would."""

    __slots__ = ("_generator", "_buf", "_pos")

    def __init__(self, generator):
        self._generator = generator
        self._buf = None
        self._pos = _BLOCK

    def random(self) -> float:
        if self._pos >= _BLOCK:
            self._buf = self._generator.random(_BLOCK)
            self._pos = 0
        value = self._buf.item(self._pos)
        self._pos += 1
        return value
