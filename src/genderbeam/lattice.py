"""Constrained hypothesis lattices: composition and serialization.

A lattice is a linear chain of states 0..n where n is the hypothesis length
in words. Every arc spans one position and rewrites that position's word to
itself (identity) or to a reinflected form from the pair set. Paths through
the lattice are exactly the gendered variants of the hypothesis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

from .errors import LatticeError
from .morpho import NONE, GenderLabel, GenderLexicon, ReinflectionPairSet, analyze_gender
from .segment import Segmenter, WholeWordSegmenter

TOKEN_JOINER = "+"


@dataclass(frozen=True)
class LatticeArc:
    """One-position rewrite: word plus its model-token expansion and gender."""

    from_state: int
    to_state: int
    word: str
    model_tokens: tuple[str, ...]
    gender: GenderLabel = NONE

    def __post_init__(self) -> None:
        if self.from_state < 0:
            raise LatticeError(f"negative arc state {self.from_state}")
        if self.to_state != self.from_state + 1:
            raise LatticeError(
                f"arc must advance one state: {self.from_state} -> {self.to_state}"
            )
        if not self.word:
            raise LatticeError("arc word must be nonempty")
        if not self.model_tokens or any(not token for token in self.model_tokens):
            raise LatticeError(f"arc {self.word!r} needs a nonempty model-token sequence")


class HypothesisLattice:
    """Immutable linear-chain lattice over one hypothesis.

    Arc order within a position is preserved from construction; composition
    puts the identity arc first, then pair substitutions in pair-set sort
    order, which fixes the order of paths.
    """

    def __init__(self, arcs: Iterable[LatticeArc]) -> None:
        by_position: dict[int, list[LatticeArc]] = {}
        for arc in arcs:
            seen = by_position.setdefault(arc.from_state, [])
            if any(other.word == arc.word for other in seen):
                raise LatticeError(
                    f"duplicate arc for word {arc.word!r} at position {arc.from_state}"
                )
            seen.append(arc)
        if not by_position:
            raise LatticeError("lattice needs at least one arc")
        num_positions = max(by_position) + 1
        missing = [i for i in range(num_positions) if i not in by_position]
        if missing:
            raise LatticeError(f"no outgoing arcs at positions {missing}")
        self._arcs_by_position: tuple[tuple[LatticeArc, ...], ...] = tuple(
            tuple(by_position[i]) for i in range(num_positions)
        )

    @property
    def num_positions(self) -> int:
        return len(self._arcs_by_position)

    @property
    def final_state(self) -> int:
        return self.num_positions

    @property
    def arcs(self) -> tuple[LatticeArc, ...]:
        return tuple(itertools.chain.from_iterable(self._arcs_by_position))

    def arcs_at(self, position: int) -> tuple[LatticeArc, ...]:
        return self._arcs_by_position[position]

    @property
    def path_count(self) -> int:
        return prod(len(arcs) for arcs in self._arcs_by_position)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HypothesisLattice):
            return NotImplemented
        return self._arcs_by_position == other._arcs_by_position

    def __hash__(self) -> int:
        return hash(self._arcs_by_position)

    def __repr__(self) -> str:
        return (
            f"HypothesisLattice({self.num_positions} positions, "
            f"{len(self.arcs)} arcs, {self.path_count} paths)"
        )


def compose_lattice(
    pairs: ReinflectionPairSet,
    hypothesis: Sequence[str],
    segmenter: Segmenter | None = None,
    lexicon: GenderLexicon | None = None,
) -> HypothesisLattice:
    """Compose the pair set with a word-level hypothesis.

    Each position gets the identity arc for its word plus one arc per pair
    rewrite of that word, deduplicated by surface form (first wins). Identity
    arcs carry the word's gender when the lexicon analyzes it unambiguously.
    """
    if not hypothesis:
        raise LatticeError("hypothesis must be nonempty")
    segmenter = segmenter if segmenter is not None else WholeWordSegmenter()
    arcs: list[LatticeArc] = []
    for position, word in enumerate(hypothesis):
        identity_gender = NONE
        if lexicon is not None:
            labels = analyze_gender(lexicon, word)
            if len(labels) == 1:
                (identity_gender,) = labels
        seen = {word}
        arcs.append(
            LatticeArc(position, position + 1, word, segmenter.segment(word), identity_gender)
        )
        for target, gender in pairs.substitutions_for(word):
            if target in seen:
                continue
            seen.add(target)
            arcs.append(
                LatticeArc(position, position + 1, target, segmenter.segment(target), gender)
            )
    return HypothesisLattice(arcs)


def serialize_lattice(lattice: HypothesisLattice) -> str:
    """Text form: one arc per line, position order, then the final-state line."""
    lines = []
    for arc in lattice.arcs:
        if any(TOKEN_JOINER in token for token in arc.model_tokens):
            raise LatticeError(
                f"model token containing {TOKEN_JOINER!r} cannot be serialized: {arc.model_tokens!r}"
            )
        joined = TOKEN_JOINER.join(arc.model_tokens)
        lines.append(f"{arc.from_state}\t{arc.to_state}\t{arc.word}\t{joined}\t{arc.gender}")
    lines.append(f"FINAL\t{lattice.final_state}")
    return "\n".join(lines) + "\n"
