"""Constrained hypothesis lattices: composition, enumeration, serialization.

A lattice is a linear chain of states 0..n where n is the hypothesis length
in words. Every arc spans one position and rewrites that position's word to
itself (identity) or to a reinflected form from the pair set. Paths through
the lattice are exactly the gendered variants of the hypothesis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator, Sequence

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
    order, which fixes the enumeration order.
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


MAX_ENUMERATED_PATHS = 10**6


def iter_paths(
    lattice: HypothesisLattice,
) -> Iterator[tuple[tuple[str, ...], tuple[GenderLabel, ...]]]:
    """All paths as (words, per-word genders), the last position varying fastest."""
    for combo in itertools.product(*(lattice.arcs_at(i) for i in range(lattice.num_positions))):
        yield tuple(arc.word for arc in combo), tuple(arc.gender for arc in combo)


def enumerate_paths(
    lattice: HypothesisLattice,
    limit: int | None = None,
    max_paths: int = MAX_ENUMERATED_PATHS,
) -> list[tuple[tuple[str, ...], tuple[GenderLabel, ...]]]:
    """Materialize paths in iter_paths order, truncated at limit if given."""
    if limit is None and lattice.path_count > max_paths:
        raise LatticeError(
            f"lattice has {lattice.path_count} paths, over the {max_paths} enumeration "
            "bound; pass a limit to truncate"
        )
    paths = iter_paths(lattice)
    if limit is not None:
        return list(itertools.islice(paths, limit))
    return list(paths)


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


def deserialize_lattice(text: str) -> HypothesisLattice:
    """Parse the serialize_lattice format; errors carry 1-based line numbers."""
    arcs: list[LatticeArc] = []
    final_state: int | None = None
    last_position = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if final_state is not None:
            raise LatticeError(f"line {lineno}: content after the FINAL line")
        columns = line.split("\t")
        if columns[0] == "FINAL":
            # ASCII digits only: str.isdigit also accepts '²', which int rejects
            if len(columns) != 2 or not (columns[1].isascii() and columns[1].isdigit()):
                raise LatticeError(f"line {lineno}: malformed FINAL line")
            final_state = int(columns[1])
            continue
        if len(columns) != 5:
            raise LatticeError(f"line {lineno}: expected 5 tab-separated fields, got {len(columns)}")
        raw_from, raw_to, word, joined, tag = columns
        try:
            from_state, to_state = int(raw_from), int(raw_to)
        except ValueError:
            raise LatticeError(f"line {lineno}: non-numeric arc states") from None
        tokens = tuple(joined.split(TOKEN_JOINER))
        try:
            gender = GenderLabel(tag)
        except ValueError as exc:
            raise LatticeError(f"line {lineno}: {exc}") from exc
        if from_state < last_position:
            raise LatticeError(f"line {lineno}: arcs must be grouped by position in order")
        last_position = from_state
        try:
            arcs.append(LatticeArc(from_state, to_state, word, tokens, gender))
        except LatticeError as exc:
            raise LatticeError(f"line {lineno}: {exc}") from exc
    if not arcs:
        raise LatticeError("lattice text contains no arcs")
    if final_state is None:
        raise LatticeError("lattice text missing the FINAL line")
    lattice = HypothesisLattice(arcs)
    if lattice.final_state != final_state:
        raise LatticeError(
            f"FINAL state {final_state} does not match arc structure ({lattice.final_state})"
        )
    return lattice
