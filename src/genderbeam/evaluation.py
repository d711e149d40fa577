"""Gender-translation metrics and end-to-end pipeline evaluation.

Accuracy is record-level. Per-gender F1 is one-vs-rest with the
0-when-undefined convention, and the gap statistic delta_g is
f1_masculine - f1_feminine; closer to zero means more balanced output.
A label outside masculine and feminine, such as a pattern file's, gets its
own F1 and predicted count once it occurs in the gold labels or the
predictions.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .decode import BeamConfig, NBestList, ScoringModel, beam_search, two_pass_decode
from .morpho import (
    FEMININE,
    MASCULINE,
    NONE,
    GenderLabel,
    GenderLexicon,
    ReinflectionPairSet,
)
from .rerank import (
    AlignmentMap,
    CoreferenceResolver,
    EntitySpec,
    _target_genders,
    get_entity,
    pronoun_and_gender,
    rerank,
)

RERANK_MODES = ("off", "oracle", "inferred")


@dataclass(frozen=True)
class EvalRecord:
    """Outcome for one test sentence; a missing prediction is never correct."""

    sent_id: int
    gold_gender: GenderLabel
    predicted_gender: GenderLabel | None

    @property
    def correct(self) -> bool:
        return self.predicted_gender is not None and self.predicted_gender == self.gold_gender


@dataclass(frozen=True)
class MetricReport:
    """Scores of one record list. other_labels holds (label, F1, predicted
    count) for each label outside masculine and feminine that occurs in the
    gold labels or the predictions, by label; it is empty on a binary run."""

    accuracy: float
    f1_masculine: float
    f1_feminine: float
    delta_g: float
    gold_counts: tuple[tuple[str, int], ...]
    other_labels: tuple[tuple[str, float, int], ...]


@dataclass(frozen=True)
class TestSentence:
    """One evaluation row: source tokens, gold gender, and the oracle entity."""

    __test__ = False  # bare data, despite the Test- name

    sent_id: int
    gold_gender: GenderLabel
    source: tuple[str, ...]
    trigger_index: int | None
    entity_indices: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", tuple(self.source))
        object.__setattr__(self, "entity_indices", frozenset(self.entity_indices))
        if not self.source:
            raise ValueError(f"sentence {self.sent_id}: source is empty")
        if self.gold_gender == NONE:
            raise ValueError(f"sentence {self.sent_id}: gold gender must be concrete")
        if not self.entity_indices:
            raise ValueError(f"sentence {self.sent_id}: entity_indices must be nonempty")
        for index in sorted(self.entity_indices):
            if not 0 <= index < len(self.source):
                raise ValueError(
                    f"sentence {self.sent_id}: entity index {index} outside source "
                    f"of length {len(self.source)}"
                )
        if self.trigger_index is not None and not 0 <= self.trigger_index < len(self.source):
            raise ValueError(
                f"sentence {self.sent_id}: trigger index {self.trigger_index} outside "
                f"source of length {len(self.source)}"
            )


@dataclass(frozen=True)
class PipelineOutcome:
    """Per-sentence pipeline product: the candidate list, the pick, the record."""

    record: EvalRecord
    nbest: NBestList
    selected_index: int


def label_f1(records: Sequence[EvalRecord], label: GenderLabel) -> float:
    """One-vs-rest F1 for a label; 0 when precision + recall has no mass."""
    gold = sum(1 for r in records if r.gold_gender == label)
    retrieved = sum(1 for r in records if r.predicted_gender == label)
    true_positive = sum(
        1 for r in records if r.gold_gender == label and r.predicted_gender == label
    )
    precision = true_positive / retrieved if retrieved else 0.0
    recall = true_positive / gold if gold else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def score_records(records: Sequence[EvalRecord]) -> MetricReport:
    if not records:
        raise ValueError("cannot score an empty record list")
    accuracy = sum(1 for r in records if r.correct) / len(records)
    f1_masc = label_f1(records, MASCULINE)
    f1_fem = label_f1(records, FEMININE)
    counts = Counter(str(r.gold_gender) for r in records)
    predicted = Counter(r.predicted_gender for r in records)
    others = sorted((predicted.keys() | {r.gold_gender for r in records}) - {None, MASCULINE, FEMININE})
    return MetricReport(accuracy, f1_masc, f1_fem, f1_masc - f1_fem, tuple(sorted(counts.items())),
                        tuple((str(label), label_f1(records, label), predicted[label]) for label in others))


def extract_predicted_gender(
    hypothesis: Sequence[str],
    alignment: AlignmentMap,
    entity_indices: Iterable[int],
    lexicon: GenderLexicon,
) -> GenderLabel | None:
    """Majority gender over the entity's aligned target tokens.

    The vote for a concrete gender is the agreement count of an entity that
    requires it over the same indices: each aligned token inside the
    hypothesis votes once per analyzed gender. A tie, or no vote at all,
    yields None, which scoring counts as wrong.
    """
    votes: Counter[GenderLabel] = Counter()
    for target in alignment.aligned_targets(entity_indices):
        votes.update(_target_genders(hypothesis, target, lexicon))
    del votes[NONE]  # no entity requires none
    ranked = votes.most_common()
    if not ranked or (len(ranked) > 1 and ranked[0][1] == ranked[1][1]):
        return None
    return ranked[0][0]


def diagonal_aligner(source: Sequence[str], target: Sequence[str]) -> AlignmentMap:
    """Stub aligner linking i-i up to the shorter length.

    Returns one shared map per length: every hypothesis of that length gets
    the same object, and AlignmentMap hands it back as it is.
    """
    return _diagonal(min(len(source), len(target)))


@functools.lru_cache(maxsize=256)
def _diagonal(length: int) -> AlignmentMap:
    return AlignmentMap((i, i) for i in range(length))


def _entities_for(
    sentence: TestSentence,
    mode: str,
    pronoun_table: Mapping[str, GenderLabel] | None,
    resolver: CoreferenceResolver | None,
) -> list[EntitySpec]:
    if mode == "off":
        return []
    if mode == "oracle":
        return [EntitySpec(sentence.trigger_index, sentence.gold_gender, sentence.entity_indices)]
    assert mode == "inferred" and pronoun_table is not None and resolver is not None
    entities = []
    for index, gender in pronoun_and_gender(sentence.source, pronoun_table):
        indices = get_entity(sentence.source, index, resolver)
        if indices:
            entities.append(EntitySpec(index, gender, indices))
    return entities


def run_pipeline(
    testset: Sequence[TestSentence],
    model: ScoringModel,
    pairs: ReinflectionPairSet,
    lexicon: GenderLexicon,
    *,
    constrain: bool,
    rerank_mode: str,
    cfg: BeamConfig,
    pronoun_table: Mapping[str, GenderLabel] | None = None,
    resolver: CoreferenceResolver | None = None,
) -> list[PipelineOutcome]:
    """Decode, rerank, and extract a predicted gender per sentence.

    Rerank mode "off" reranks with no entities, which keeps the 1-best. The
    prediction always uses the test row's own entity indices, whatever
    evidence the reranker ran on, so modes stay comparable record for record.
    Score the records with score_records.
    """
    if rerank_mode not in RERANK_MODES:
        raise ValueError(f"rerank mode must be one of {RERANK_MODES}, got {rerank_mode!r}")
    if rerank_mode == "inferred" and (pronoun_table is None or resolver is None):
        raise ValueError("inferred reranking needs a pronoun table and a coreference resolver")
    outcomes = []
    for sentence in testset:
        if constrain:
            nbest = two_pass_decode(model, sentence.source, pairs, cfg, cfg, source_id=sentence.sent_id)
        else:
            nbest = beam_search(model, sentence.source, cfg, source_id=sentence.sent_id)
        entities = _entities_for(sentence, rerank_mode, pronoun_table, resolver)
        outcomes.append(_select(sentence, nbest, entities, lexicon))
    return outcomes


def _select(sentence: TestSentence, nbest: NBestList, entities: Sequence[EntitySpec],
            lexicon: GenderLexicon) -> PipelineOutcome:
    """Align each hypothesis of the sentence's list, rerank on the given
    entities, and predict on the row's own entity indices."""
    alignments = [diagonal_aligner(sentence.source, hyp.tokens) for hyp in nbest]
    selected = rerank(nbest, alignments, entities, lexicon).selected_index
    predicted = extract_predicted_gender(nbest[selected].tokens, alignments[selected],
                                         sentence.entity_indices, lexicon)
    return PipelineOutcome(EvalRecord(sentence.sent_id, sentence.gold_gender, predicted), nbest, selected)


def _sweep_configs(widths: Sequence[int], max_len: int) -> list[BeamConfig]:
    """beam_sweep's config for each width, each width also its list size;
    widths must be nonempty and strictly ascending."""
    configs = [BeamConfig(width, width, max_len) for width in widths]
    if not configs:
        raise ValueError("widths must be nonempty")
    widths = [cfg.beam_width for cfg in configs]
    if any(b <= a for a, b in zip(widths, widths[1:])):
        raise ValueError(f"widths must be strictly ascending, got {widths}")
    return configs


def beam_sweep(
    testset: Sequence[TestSentence],
    model: ScoringModel,
    pairs: ReinflectionPairSet,
    lexicon: GenderLexicon,
    widths: Sequence[int],
    *,
    max_len: int = 128,
) -> list[tuple[int, float]]:
    """(width, accuracy) rows under constrained decoding with oracle reranking.

    Widths strictly ascending. Each sentence runs at every width before the
    next one starts, so a model's per-source step cache serves all widths.
    """
    records: dict[BeamConfig, list[EvalRecord]] = {cfg: [] for cfg in _sweep_configs(widths, max_len)}
    for sentence in testset:
        entities = _entities_for(sentence, "oracle", None, None)
        for cfg, kept in records.items():
            nbest = two_pass_decode(model, sentence.source, pairs, cfg, cfg, source_id=sentence.sent_id)
            kept.append(_select(sentence, nbest, entities, lexicon).record)
    return [(cfg.beam_width, score_records(kept).accuracy) for cfg, kept in records.items()]
