"""Gender-translation metrics and end-to-end pipeline evaluation.

Accuracy is record-level. Per-gender F1 is one-vs-rest with the
0-when-undefined convention, and the gap statistic delta_g is
f1_masculine - f1_feminine; closer to zero means more balanced output.
"""

from __future__ import annotations

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
    analyze_gender,
)
from .rerank import (
    AlignmentMap,
    CoreferenceResolver,
    EntitySpec,
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
    accuracy: float
    f1_masculine: float
    f1_feminine: float
    delta_g: float
    gold_counts: tuple[tuple[str, int], ...]


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
    return MetricReport(accuracy, f1_masc, f1_fem, f1_masc - f1_fem, tuple(sorted(counts.items())))


def extract_predicted_gender(
    hypothesis: Sequence[str],
    alignment: AlignmentMap,
    entity_indices: Iterable[int],
    lexicon: GenderLexicon,
) -> GenderLabel | None:
    """Majority gender over the entity's aligned target tokens.

    Each aligned token votes once per analyzed concrete gender; a tie or the
    absence of any gendered aligned token yields None, which scoring counts
    as wrong.
    """
    votes: Counter[GenderLabel] = Counter()
    for target in sorted(alignment.aligned_targets(entity_indices)):
        if target >= len(hypothesis):
            continue
        for label in analyze_gender(lexicon, hypothesis[target]):
            if label != NONE:
                votes[label] += 1
    if not votes:
        return None
    ranked = votes.most_common()
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        return None
    return ranked[0][0]


def diagonal_aligner(source: Sequence[str], target: Sequence[str]) -> set[tuple[int, int]]:
    """Stub aligner linking i-i up to the shorter length."""
    return {(i, i) for i in range(min(len(source), len(target)))}


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
            nbest = two_pass_decode(
                model, sentence.source, pairs, cfg, cfg,
                lexicon=lexicon, source_id=sentence.sent_id,
            )
        else:
            nbest = beam_search(model, sentence.source, cfg, source_id=sentence.sent_id)
        alignments = [AlignmentMap(diagonal_aligner(sentence.source, hyp.tokens)) for hyp in nbest]
        entities = _entities_for(sentence, rerank_mode, pronoun_table, resolver)
        selected = rerank(nbest, alignments, entities, lexicon).selected_index
        predicted = extract_predicted_gender(
            nbest[selected].tokens, alignments[selected], sentence.entity_indices, lexicon
        )
        record = EvalRecord(sentence.sent_id, sentence.gold_gender, predicted)
        outcomes.append(PipelineOutcome(record, nbest, selected))
    return outcomes


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
    widths = [int(w) for w in widths]
    if not widths:
        raise ValueError("widths must be nonempty")
    if any(b <= a for a, b in zip(widths, widths[1:])):
        raise ValueError(f"widths must be strictly ascending, got {widths}")
    records: dict[int, list[EvalRecord]] = {width: [] for width in widths}
    for sentence in testset:
        for width in widths:
            (outcome,) = run_pipeline(
                [sentence],
                model,
                pairs,
                lexicon,
                constrain=True,
                rerank_mode="oracle",
                cfg=BeamConfig(width, width, max_len),
            )
            records[width].append(outcome.record)
    return [(width, score_records(records[width]).accuracy) for width in widths]
