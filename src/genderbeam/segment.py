"""Adapters between word-level lattice labels and model-vocabulary tokens.

Lattice arcs carry words; scoring models consume model tokens. A segmenter
maps each word to a deterministic token sequence and back.
"""

from __future__ import annotations

from typing import Protocol, Sequence


class Segmenter(Protocol):
    def segment(self, word: str) -> tuple[str, ...]:
        """Model tokens for one word; nonempty and deterministic."""

    def words(self, tokens: Sequence[str]) -> tuple[str, ...]:
        """Reassemble a model-token sequence into words."""


class WholeWordSegmenter:
    """Identity mapping: every word is a single model token."""

    def segment(self, word: str) -> tuple[str, ...]:
        return (word,)

    def words(self, tokens: Sequence[str]) -> tuple[str, ...]:
        return tuple(tokens)
