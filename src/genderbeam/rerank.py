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

import functools
import math
import statistics
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


class AlignmentMap(frozenset):
    """Source-to-target index links for one (source, hypothesis) pair.

    A frozenset of links, checked once when built: each link must be
    non-negative, and one that is not an exact tuple of two exact ints is
    rebuilt as (int(s), int(t)). A map cannot change, so a map passed in
    comes back as it is; any other container, a plain frozenset included,
    is walked and checked. A map equals a frozenset with the same links.
    """

    def __new__(cls, links: Iterable[tuple[int, int]] = ()) -> AlignmentMap:
        if type(links) is cls:
            return links
        checked = []
        for link in links:
            s, t = link
            if s < 0 or t < 0:
                raise RerankError(f"alignment link ({s}, {t}) has a negative index")
            if type(link) is not tuple or type(s) is not int or type(t) is not int:
                link = (int(s), int(t))
            checked.append(link)
        return super().__new__(cls, checked)

    @functools.cached_property
    def target_end(self) -> int:
        """One past the largest target index; 0 with no links."""
        return max((t for _, t in self), default=-1) + 1

    def aligned_targets(self, source_indices: Iterable[int]) -> frozenset[int]:
        wanted = set(source_indices)
        return frozenset(t for s, t in self if s in wanted)

    def __repr__(self) -> str:
        return f"AlignmentMap({len(self)} links)"


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


def _requirements(
    alignment: AlignmentMap, entities: Sequence[EntitySpec]
) -> list[tuple[int, GenderLabel]]:
    """(aligned target, required gender) once per entity and aligned target."""
    return [
        (target, spec.required_gender)
        for spec in entities
        for target in alignment.aligned_targets(spec.entity_indices)
    ]


def _target_genders(
    hypothesis: Sequence[str], target: int, lexicon: GenderLexicon
) -> frozenset[GenderLabel]:
    """The genders an aligned target agrees with: the analyzed genders of its
    token, or none when it lies past the end of the hypothesis."""
    if target < len(hypothesis):
        return analyze_gender(lexicon, hypothesis[target])
    return frozenset()


def _agreeing(
    hypothesis: Sequence[str],
    requirements: Sequence[tuple[int, GenderLabel]],
    lexicon: GenderLexicon,
) -> int:
    """Requirements whose target agrees with the required gender."""
    total = 0
    for target, gender in requirements:
        if gender in _target_genders(hypothesis, target, lexicon):
            total += 1
    return total


def rerank(
    nbest: NBestList,
    alignments: Sequence[AlignmentMap],
    entities: Sequence[EntitySpec],
    lexicon: GenderLexicon,
) -> RerankResult:
    """Argmax by (agreement, loglik, earliest rank); deterministic.

    Hypotheses with equal alignment maps share one computation of their
    aligned requirements, so each distinct link set is scanned once.
    An NBestList is non-increasing by loglik with ties in rank order, so the
    first index of the best score is that argmax, found in one pass.
    """
    if len(nbest) == 0:
        raise RerankError(f"source {nbest.source_id}: cannot rerank an empty n-best list")
    if len(alignments) != len(nbest):
        raise RerankError(
            f"source {nbest.source_id}: {len(alignments)} alignments for {len(nbest)} hypotheses"
        )
    by_links: dict[AlignmentMap, list[tuple[int, GenderLabel]]] = {}
    scores = []
    for hyp, alignment in zip(nbest, alignments):
        requirements = by_links.get(alignment)
        if requirements is None:
            requirements = by_links[alignment] = _requirements(alignment, entities)
        scores.append(_agreeing(hyp.tokens, requirements, lexicon))
    selected = scores.index(max(scores))
    return RerankResult(selected, tuple(scores), nbest[selected])


def inject_placeholder(nbest: NBestList, placeholder: Sequence[str]) -> NBestList:
    """Append a synthetic hypothesis at the arithmetic mean log likelihood.

    Re-sorting is stable, so the placeholder lands after originals it ties.
    """
    if len(nbest) == 0:
        raise RerankError(f"source {nbest.source_id}: cannot inject into an empty list")
    logliks = [hyp.loglik for hyp in nbest]
    try:
        mean = math.fsum(logliks) / len(logliks)
    except OverflowError:  # a running sum past the float range; the exact mean is within it
        mean = statistics.mean(logliks)
    except ValueError:  # fsum of +inf and -inf
        mean = math.nan
    if math.isnan(mean):
        raise RerankError(f"source {nbest.source_id}: cannot average log likelihoods "
                          f"holding both +inf and -inf")
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
