"""Agreement-based reranking of n-best lists.

Selection is a lexicographic argmax over (agreement score, log likelihood,
earliest original rank). The agreement score counts aligned target tokens
whose analyzed gender set contains the required gender, summed over all
entities. Oracle mode takes entity annotations from files; inferred mode
derives them from a pronoun table plus a coreference resolver; named-entity
mode supplies the required gender directly; placeholder mode injects a
synthetic hypothesis at the list-average log likelihood first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, Sequence

from .decode import Hypothesis, NBestList
from .errors import RerankError
from .morpho import NONE, GenderLabel, GenderLexicon, analyze_gender


@dataclass(frozen=True)
class EntitySpec:
    """One gendered source entity: optional trigger position, required gender,
    and the source token indices the gender must agree with."""

    trigger_index: int | None
    required_gender: GenderLabel
    entity_indices: frozenset[int]

    def __post_init__(self) -> None:
        if self.required_gender == NONE:
            raise RerankError("entity requires a concrete gender, not none")
        if not self.entity_indices:
            raise RerankError("entity_indices must be nonempty")
        if any(i < 0 for i in self.entity_indices):
            raise RerankError("entity indices must be non-negative")
        if self.trigger_index is not None and self.trigger_index < 0:
            raise RerankError("trigger index must be non-negative")
        object.__setattr__(self, "entity_indices", frozenset(self.entity_indices))


class AlignmentMap:
    """Source-to-target index links for one (source, hypothesis) pair."""

    def __init__(self, links: Iterable[tuple[int, int]] = ()) -> None:
        checked = set()
        for s, t in links:
            if s < 0 or t < 0:
                raise RerankError(f"alignment link ({s}, {t}) has a negative index")
            checked.add((int(s), int(t)))
        self._links = frozenset(checked)

    @property
    def links(self) -> frozenset[tuple[int, int]]:
        return self._links

    def aligned_targets(self, source_indices: Iterable[int]) -> frozenset[int]:
        wanted = set(source_indices)
        return frozenset(t for s, t in self._links if s in wanted)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlignmentMap):
            return NotImplemented
        return self._links == other._links

    def __hash__(self) -> int:
        return hash(self._links)

    def __repr__(self) -> str:
        return f"AlignmentMap({len(self._links)} links)"


@dataclass(frozen=True)
class RerankResult:
    selected_index: int
    agreement_scores: tuple[int, ...]
    selected_hypothesis: Hypothesis


def pronoun_and_gender(
    source: Sequence[str], pronoun_table: Mapping[str, GenderLabel]
) -> list[tuple[int, GenderLabel]]:
    """All pronoun positions with their genders, in source order, case-insensitive."""
    lowered = {pronoun.lower(): gender for pronoun, gender in pronoun_table.items()}
    return [
        (index, lowered[token.lower()])
        for index, token in enumerate(source)
        if token.lower() in lowered
    ]


class CoreferenceResolver(Protocol):
    def resolve(self, source: Sequence[str], pronoun_index: int) -> Iterable[int]:
        """Source indices coreferent with the pronoun; may raise on failure."""


class NearestPrecedingNounResolver:
    """Rule-based resolver: nearest preceding token from a known-noun list."""

    def __init__(self, nouns: Iterable[str]) -> None:
        self._nouns = frozenset(noun.lower() for noun in nouns)

    def resolve(self, source: Sequence[str], pronoun_index: int) -> set[int]:
        for index in range(pronoun_index - 1, -1, -1):
            if source[index].lower() in self._nouns:
                return {index}
        return set()


def get_entity(
    source: Sequence[str], pronoun_index: int, resolver: CoreferenceResolver
) -> frozenset[int]:
    """Coreferent indices for a pronoun; resolver failure degrades to the empty set."""
    if not 0 <= pronoun_index < len(source):
        raise ValueError(f"pronoun index {pronoun_index} outside source of length {len(source)}")
    try:
        indices = resolver.resolve(source, pronoun_index)
    except Exception:
        return frozenset()
    return frozenset(i for i in indices if 0 <= i < len(source))


def agreement_score(
    hypothesis: Sequence[str],
    alignment: AlignmentMap,
    entities: Sequence[EntitySpec],
    lexicon: GenderLexicon,
) -> int:
    """Aligned target tokens whose gender set contains the required gender."""
    total = 0
    for spec in entities:
        for target in alignment.aligned_targets(spec.entity_indices):
            if target < len(hypothesis) and spec.required_gender in analyze_gender(
                lexicon, hypothesis[target]
            ):
                total += 1
    return total


def rerank(
    nbest: NBestList,
    alignments: Sequence[AlignmentMap],
    entities: Sequence[EntitySpec],
    lexicon: GenderLexicon,
) -> RerankResult:
    """Argmax by (agreement, loglik, earliest rank); deterministic."""
    if len(nbest) == 0:
        raise RerankError(f"source {nbest.source_id}: cannot rerank an empty n-best list")
    if len(alignments) != len(nbest):
        raise RerankError(
            f"source {nbest.source_id}: {len(alignments)} alignments for {len(nbest)} hypotheses"
        )
    scores = tuple(
        agreement_score(hyp.tokens, alignment, entities, lexicon)
        for hyp, alignment in zip(nbest, alignments)
    )
    selected = max(range(len(nbest)), key=lambda i: (scores[i], nbest[i].loglik, -i))
    return RerankResult(selected, scores, nbest[selected])


def inject_placeholder(nbest: NBestList, placeholder: Sequence[str]) -> NBestList:
    """Append a synthetic hypothesis at the arithmetic mean log likelihood.

    Re-sorting is stable, so the placeholder lands after originals it ties.
    """
    if len(nbest) == 0:
        raise RerankError(f"source {nbest.source_id}: cannot inject into an empty list")
    mean = math.fsum(hyp.loglik for hyp in nbest) / len(nbest)
    return NBestList(
        nbest.source_id, [*nbest.hypotheses, Hypothesis(tuple(placeholder), mean)]
    )


def rerank_named_entity(
    nbest: NBestList,
    alignments: Sequence[AlignmentMap],
    coref_indices: Iterable[int],
    known_gender: GenderLabel,
    lexicon: GenderLexicon,
) -> RerankResult:
    """Rerank with an externally known gender for a named entity.

    Agreement is scored on the coreferent words (relative pronouns and the
    like), not on the name, whose tokens are identical in every hypothesis
    and cannot discriminate. Empty coref_indices degrades to loglik selection.
    """
    coref = frozenset(coref_indices)
    entities = [EntitySpec(None, known_gender, coref)] if coref else []
    return rerank(nbest, alignments, entities, lexicon)
