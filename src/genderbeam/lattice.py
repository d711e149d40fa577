"""Constrained hypothesis lattices: composition and serialization.

A lattice is a linear chain with one position per word of the hypothesis.
Every arc at a position rewrites that position's word to itself (identity)
or to a reinflected form from the pair set. Paths through the lattice are
exactly the gendered variants of the hypothesis. The text form numbers the
states between positions: position i's arcs run from state i to state i + 1,
and the final state is the number of positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

from .errors import LatticeError
from .morpho import BOS, EOS, NONE, GenderLabel, GenderLexicon, ReinflectionPairSet, _is_token, _not_token, analyze_gender
from .segment import Segmenter, WholeWordSegmenter

TOKEN_JOINER = "+"


@dataclass(frozen=True)
class LatticeArc:
    """One-position rewrite: word plus its model-token expansion and gender.
    The word and every model token are tokens, and no model token is a
    sentence boundary, which the scorer would read as one."""

    word: str
    model_tokens: tuple[str, ...]
    gender: GenderLabel = NONE

    def __post_init__(self) -> None:
        if not self.model_tokens:
            raise LatticeError(f"arc {self.word!r} needs a nonempty model-token sequence")
        for token in (self.word, *self.model_tokens):
            if not _is_token(token):
                raise LatticeError(f"arc {self.word!r}: {_not_token(token)}")
        if BOS in self.model_tokens or EOS in self.model_tokens:
            raise LatticeError(f"arc {self.word!r}: model tokens {self.model_tokens!r} hold a sentence boundary")


class HypothesisLattice:
    """Immutable linear-chain lattice over one hypothesis, built from one
    iterable of arcs per position. A lattice with no positions, a position
    with no arcs and a word repeated at one position are refused.

    Arc order within a position is preserved from construction; composition
    puts the identity arc first, then pair substitutions in pair-set sort
    order, which fixes the order of paths.
    """

    def __init__(self, positions: Iterable[Iterable[LatticeArc]]) -> None:
        self._arcs_by_position: tuple[tuple[LatticeArc, ...], ...] = tuple(map(tuple, positions))
        if not self._arcs_by_position:
            raise LatticeError("lattice needs at least one arc")
        missing = [i for i, arcs in enumerate(self._arcs_by_position) if not arcs]
        if missing:
            raise LatticeError(f"no outgoing arcs at positions {missing}")
        for position, arcs in enumerate(self._arcs_by_position):
            words: set[str] = set()
            for arc in arcs:
                if arc.word in words:
                    raise LatticeError(f"duplicate arc for word {arc.word!r} at position {position}")
                words.add(arc.word)

    @property
    def num_positions(self) -> int:
        return len(self._arcs_by_position)

    def arcs_at(self, position: int) -> tuple[LatticeArc, ...]:
        return self._arcs_by_position[position]

    @property
    def path_count(self) -> int:
        return prod(map(len, self._arcs_by_position))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HypothesisLattice):
            return NotImplemented
        return self._arcs_by_position == other._arcs_by_position

    def __hash__(self) -> int:
        return hash(self._arcs_by_position)

    def __repr__(self) -> str:
        return (
            f"HypothesisLattice({self.num_positions} positions, "
            f"{sum(map(len, self._arcs_by_position))} arcs, {self.path_count} paths)"
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
    positions: list[list[LatticeArc]] = []
    for word in hypothesis:
        identity_gender = NONE
        if lexicon is not None:
            labels = analyze_gender(lexicon, word)
            if len(labels) == 1:
                (identity_gender,) = labels
        seen = {word}
        arcs = [LatticeArc(word, segmenter.segment(word), identity_gender)]
        for target, gender in pairs.substitutions_for(word):
            if target in seen:
                continue
            seen.add(target)
            arcs.append(LatticeArc(target, segmenter.segment(target), gender))
        positions.append(arcs)
    return HypothesisLattice(positions)


def serialize_lattice(lattice: HypothesisLattice) -> str:
    """Text form: one arc per line `position<TAB>position + 1<TAB>word<TAB>
    model tokens<TAB>gender` in position order, then the final-state line."""
    lines = []
    for position in range(lattice.num_positions):
        for arc in lattice.arcs_at(position):
            if any(TOKEN_JOINER in token for token in arc.model_tokens):
                raise LatticeError(
                    f"model token containing {TOKEN_JOINER!r} cannot be serialized: {arc.model_tokens!r}"
                )
            joined = TOKEN_JOINER.join(arc.model_tokens)
            lines.append(f"{position}\t{position + 1}\t{arc.word}\t{joined}\t{arc.gender}")
    lines.append(f"FINAL\t{lattice.num_positions}")
    return "\n".join(lines) + "\n"
