"""Metric arithmetic and end-to-end pipeline behavior."""

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genderbeam.decode import BeamConfig, EOS, Hypothesis, NBestList, TableModel
from genderbeam.evaluation import (
    EvalRecord,
    MetricReport,
    TestSentence,
    beam_sweep,
    diagonal_aligner,
    extract_predicted_gender,
    label_f1,
    run_pipeline,
    score_records,
)
from genderbeam.morpho import (
    FEMININE,
    MASCULINE,
    NEUTER,
    NONE,
    GenderLabel,
    GenderLexicon,
    LexiconEntry,
    PlaceholderPattern,
    build_reinflection_pairs,
)
from genderbeam.rerank import (
    AlignmentMap,
    EntitySpec,
    NearestPrecedingNounResolver,
    rerank,
)
from genderbeam.synth import build_benchmark
from helpers import agreement_score, pipeline_report, reference_extract_predicted_gender


def record(sent_id, gold, predicted):
    return EvalRecord(sent_id, gold, predicted)


class TestScoreRecords:
    def test_hand_computed_confusion(self):
        records = [
            record(0, MASCULINE, MASCULINE),
            record(1, MASCULINE, MASCULINE),
            record(2, FEMININE, MASCULINE),
            record(3, FEMININE, FEMININE),
        ]
        report = score_records(records)
        assert report.accuracy == pytest.approx(0.75, abs=1e-9)
        assert report.f1_masculine == pytest.approx(0.8, abs=1e-9)
        assert report.f1_feminine == pytest.approx(2 / 3, abs=1e-9)
        assert report.delta_g == pytest.approx(0.8 - 2 / 3, abs=1e-9)
        assert report.gold_counts == (("feminine", 2), ("masculine", 2))

    def test_all_correct_mixed_set(self):
        records = [
            record(0, MASCULINE, MASCULINE),
            record(1, FEMININE, FEMININE),
            record(2, MASCULINE, MASCULINE),
        ]
        report = score_records(records)
        assert report.accuracy == 1.0
        assert report.delta_g == 0.0

    def test_all_none_predictions(self):
        records = [record(i, MASCULINE if i % 2 else FEMININE, None) for i in range(6)]
        report = score_records(records)
        assert report.accuracy == 0.0
        assert report.f1_masculine == 0.0
        assert report.f1_feminine == 0.0
        assert report.delta_g == 0.0

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            score_records([])

    def test_permutation_invariant(self):
        rng = random.Random(11)
        labels = [MASCULINE, FEMININE, NEUTER, None]
        records = [
            record(i, rng.choice(labels[:2]), rng.choice(labels)) for i in range(40)
        ]
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert score_records(records) == score_records(shuffled)

    def test_delta_g_antisymmetry_under_label_swap(self):
        rng = random.Random(23)
        swap = {MASCULINE: FEMININE, FEMININE: MASCULINE}
        for _ in range(100):
            records = [
                record(
                    i,
                    rng.choice((MASCULINE, FEMININE)),
                    rng.choice((MASCULINE, FEMININE, NEUTER, None)),
                )
                for i in range(rng.randrange(1, 25))
            ]
            swapped = [
                record(r.sent_id, swap[r.gold_gender], swap.get(r.predicted_gender, r.predicted_gender))
                for r in records
            ]
            assert score_records(swapped).delta_g == -score_records(records).delta_g

    def test_accuracy_matches_record_corrects(self):
        records = [
            record(0, MASCULINE, MASCULINE),
            record(1, FEMININE, None),
            record(2, FEMININE, MASCULINE),
        ]
        report = score_records(records)
        assert report.accuracy == sum(r.correct for r in records) / len(records)

    def test_none_prediction_never_correct(self):
        assert not record(0, MASCULINE, None).correct


AMB_LEXICON = GenderLexicon(
    entries=[
        LexiconEntry("rey", "rey", "NOUN.sg", MASCULINE),
        LexiconEntry("reina", "rey", "NOUN.sg", FEMININE),
        LexiconEntry("testigo", "testigo", "NOUN.sg", MASCULINE),
        LexiconEntry("testigo", "testigo", "NOUN.sg", FEMININE),
    ]
)


class TestExtractPredictedGender:
    def test_unique_majority(self):
        alignment = AlignmentMap({(0, 0), (0, 1)})
        got = extract_predicted_gender(("rey", "reina"), alignment, {0}, AMB_LEXICON)
        assert got is None  # one masculine vote, one feminine vote: tie
        got = extract_predicted_gender(("rey", "rey"), alignment, {0}, AMB_LEXICON)
        assert got == MASCULINE

    def test_ambiguous_token_votes_both_ways(self):
        alignment = AlignmentMap({(0, 0)})
        assert extract_predicted_gender(("testigo",), alignment, {0}, AMB_LEXICON) is None

    def test_ambiguous_plus_concrete_breaks_tie(self):
        alignment = AlignmentMap({(0, 0), (0, 1)})
        got = extract_predicted_gender(("testigo", "reina"), alignment, {0}, AMB_LEXICON)
        assert got == FEMININE

    def test_no_gendered_aligned_token(self):
        alignment = AlignmentMap({(0, 0)})
        assert extract_predicted_gender(("casa",), alignment, {0}, AMB_LEXICON) is None

    def test_out_of_range_target_ignored(self):
        alignment = AlignmentMap({(0, 5)})
        assert extract_predicted_gender(("rey",), alignment, {0}, AMB_LEXICON) is None


NEUTRAL_NEW = GenderLabel("neutral-new")
# ambiguous surfaces, tokens read as none (by entry, by pattern, or with no
# analysis at all) and placeholder patterns, one of them shadowed by an entry
VOTE_LEXICON = GenderLexicon(
    [
        LexiconEntry("m0", "l0", "N", MASCULINE),
        LexiconEntry("f0", "l0", "N", FEMININE),
        LexiconEntry("amb", "amb", "N", MASCULINE),
        LexiconEntry("amb", "amb", "N", FEMININE),
        LexiconEntry("mn", "mn", "N", MASCULINE),
        LexiconEntry("mn", "mn", "N", NONE),
        LexiconEntry("nn", "nn", "N", NONE),
        LexiconEntry("fX", "fX", "N", FEMININE),
    ],
    [PlaceholderPattern("suffix", "X", NEUTRAL_NEW), PlaceholderPattern("prefix", "z", NONE)],
)
VOTE_VOCAB = ["m0", "f0", "amb", "mn", "nn", "fX", "pX", "zed", "unk"]
VOTE_GENDERS = [MASCULINE, FEMININE, NEUTER, NEUTRAL_NEW]


class TestVoteReference:
    @given(
        tokens=st.lists(st.sampled_from(VOTE_VOCAB), min_size=1, max_size=5),
        # targets up to 6 reach past every hypothesis of up to 5 tokens
        links=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 6)), max_size=7),
        indices=st.sets(st.integers(0, 2), min_size=1, max_size=3),
    )
    def test_vote_matches_the_reference(self, tokens, links, indices):
        alignment = AlignmentMap(links)
        got = extract_predicted_gender(tokens, alignment, indices, VOTE_LEXICON)
        assert got == reference_extract_predicted_gender(tokens, alignment, indices, VOTE_LEXICON)
        # the vote for a gender is the agreement count of an entity requiring it
        votes = {gender: agreement_score(tokens, alignment, [EntitySpec(None, gender, indices)],
                                         VOTE_LEXICON) for gender in VOTE_GENDERS}
        best = max(votes.values())
        winners = [gender for gender, count in votes.items() if count == best]
        assert got == (winners[0] if best and len(winners) == 1 else None)

    def test_tied_votes_yield_none(self):
        alignment = AlignmentMap({(0, 0), (0, 1), (0, 2)})
        assert extract_predicted_gender(("m0", "f0", "nn"), alignment, {0}, VOTE_LEXICON) is None
        assert extract_predicted_gender(("m0", "mn", "f0"), alignment, {0}, VOTE_LEXICON) == MASCULINE
        assert extract_predicted_gender(("pX", "amb", "zed"), alignment, {0}, VOTE_LEXICON) is None


class TestTestSentence:
    def test_validates_indices(self):
        with pytest.raises(ValueError, match="entity index"):
            TestSentence(0, FEMININE, ("a", "b"), None, frozenset({5}))
        with pytest.raises(ValueError, match="trigger"):
            TestSentence(0, FEMININE, ("a", "b"), 9, frozenset({0}))
        with pytest.raises(ValueError, match="empty"):
            TestSentence(0, FEMININE, (), None, frozenset({0}))
        with pytest.raises(ValueError, match="nonempty"):
            TestSentence(0, FEMININE, ("a",), None, frozenset())


DOCTOR_SOURCE = ("doctor", "says", "she")

DOCTOR_LEXICON = GenderLexicon(
    entries=[
        LexiconEntry("doktoro", "doktor", "NOUN.sg", MASCULINE),
        LexiconEntry("doktora", "doktor", "NOUN.sg", FEMININE),
    ]
)

DOCTOR_PAIRS = build_reinflection_pairs(DOCTOR_LEXICON)


def doctor_model():
    src = " ".join(DOCTOR_SOURCE)
    rows = {
        (src, "<s>"): {"doktoro": -0.1, "doktora": -0.3},
        (src, "doktoro"): {"diras": -0.1},
        (src, "doktora"): {"diras": -0.1},
        (src, "doktoro diras"): {"sxi": -0.1},
        (src, "doktora diras"): {"sxi": -0.1},
        (src, "doktoro diras sxi"): {EOS: -0.1},
        (src, "doktora diras sxi"): {EOS: -0.1},
    }
    return TableModel(rows)


def fem_row(sent_id=0):
    return TestSentence(sent_id, FEMININE, DOCTOR_SOURCE, 2, frozenset({0}))


def masc_row(sent_id=1):
    return TestSentence(sent_id, MASCULINE, DOCTOR_SOURCE, 2, frozenset({0}))


CFG = BeamConfig(4, 4, max_len=8)


class TestRunPipeline:
    def test_baseline_keeps_biased_first_best(self):
        outcomes = run_pipeline(
            [fem_row(), masc_row()],
            doctor_model(),
            DOCTOR_PAIRS,
            DOCTOR_LEXICON,
            constrain=False,
            rerank_mode="off",
            cfg=CFG,
        )
        assert [o.selected_index for o in outcomes] == [0, 0]
        assert [o.record.correct for o in outcomes] == [False, True]

    def test_oracle_rerank_recovers_feminine(self):
        for constrain in (False, True):
            outcomes = run_pipeline(
                [fem_row(), masc_row()],
                doctor_model(),
                DOCTOR_PAIRS,
                DOCTOR_LEXICON,
                constrain=constrain,
                rerank_mode="oracle",
                cfg=CFG,
            )
            assert [o.record.correct for o in outcomes] == [True, True]
            assert outcomes[0].nbest[outcomes[0].selected_index].tokens[0] == "doktora"

    def test_constrained_list_matches_table_scores(self):
        outcomes = run_pipeline(
            [masc_row()],
            doctor_model(),
            DOCTOR_PAIRS,
            DOCTOR_LEXICON,
            constrain=True,
            rerank_mode="off",
            cfg=CFG,
        )
        nbest = outcomes[0].nbest
        assert [h.loglik for h in nbest] == [pytest.approx(-0.4), pytest.approx(-0.6)]

    def test_inferred_matches_oracle_here(self):
        kwargs = dict(
            constrain=True,
            cfg=CFG,
            pronoun_table={"she": FEMININE},
            resolver=NearestPrecedingNounResolver(["doctor"]),
        )
        inferred = pipeline_report(
            [fem_row()], doctor_model(), DOCTOR_PAIRS, DOCTOR_LEXICON,
            rerank_mode="inferred", **kwargs,
        )
        oracle = pipeline_report(
            [fem_row()], doctor_model(), DOCTOR_PAIRS, DOCTOR_LEXICON,
            rerank_mode="oracle", **kwargs,
        )
        assert inferred == oracle
        assert inferred.accuracy == 1.0

    def test_inferred_requires_table_and_resolver(self):
        with pytest.raises(ValueError, match="inferred"):
            run_pipeline(
                [fem_row()], doctor_model(), DOCTOR_PAIRS, DOCTOR_LEXICON,
                constrain=False, rerank_mode="inferred", cfg=CFG,
            )

    def test_unknown_rerank_mode(self):
        with pytest.raises(ValueError, match="rerank mode"):
            run_pipeline(
                [fem_row()], doctor_model(), DOCTOR_PAIRS, DOCTOR_LEXICON,
                constrain=False, rerank_mode="best", cfg=CFG,
            )

    def test_agreeing_first_best_identical_in_all_modes(self):
        reports = [
            pipeline_report(
                [masc_row()], doctor_model(), DOCTOR_PAIRS, DOCTOR_LEXICON,
                constrain=constrain, rerank_mode=mode, cfg=CFG,
            )
            for constrain in (False, True)
            for mode in ("off", "oracle")
        ]
        assert all(r == reports[0] for r in reports)
        assert reports[0].accuracy == 1.0


class TestBeamSweep:
    def test_wider_beam_recovers_feminine(self):
        rows = beam_sweep(
            [fem_row()], doctor_model(), DOCTOR_PAIRS, DOCTOR_LEXICON, [1, 2], max_len=8
        )
        assert rows == [(1, 0.0), (2, 1.0)]

    def test_each_step_built_once_across_widths(self, monkeypatch):
        bench = build_benchmark(0)
        testset, widths = bench.testset[:6], [2, 4, 8]
        expected = [
            (width, pipeline_report(testset, build_benchmark(0).model, bench.pairs, bench.lexicon,
                                    constrain=True, rerank_mode="oracle",
                                    cfg=BeamConfig(width, width, 16)).accuracy)
            for width in widths
        ]
        model, builds = bench.model, Counter()
        build_step = model._build_step

        def counting(prev):
            builds[(model._step_source, prev)] += 1
            return build_step(prev)

        monkeypatch.setattr(model, "_build_step", counting)
        rows = beam_sweep(testset, model, bench.pairs, bench.lexicon, widths, max_len=16)
        assert rows == expected
        assert len({source for source, _ in builds}) == len(testset)
        assert set(builds.values()) == {1}

    def test_widths_must_ascend(self):
        args = ([fem_row()], doctor_model(), DOCTOR_PAIRS, DOCTOR_LEXICON)
        with pytest.raises(ValueError, match="ascending"):
            beam_sweep(*args, [4, 2])
        with pytest.raises(ValueError, match="ascending"):
            beam_sweep(*args, [2, 2])
        with pytest.raises(ValueError, match="nonempty"):
            beam_sweep(*args, [])


# Oracle selection can only move toward agreement, so with one aligned,
# unambiguously gendered token per hypothesis its accuracy dominates the
# pure-likelihood pick. Multi-token or ambiguous setups can break this,
# so the property is asserted only for this restricted shape.
BOUND_LEXICON = GenderLexicon(
    entries=[
        LexiconEntry("viro", "viro", "NOUN.sg", MASCULINE),
        LexiconEntry("knabo", "knabo", "NOUN.sg", MASCULINE),
        LexiconEntry("virino", "virino", "NOUN.sg", FEMININE),
        LexiconEntry("knabino", "knabino", "NOUN.sg", FEMININE),
    ]
)


class TestAccuracyBound:
    def test_oracle_rerank_dominates_loglik_pick(self):
        rng = random.Random(31)
        vocab = ["viro", "knabo", "virino", "knabino"]
        for _ in range(50):
            base_correct = 0
            oracle_correct = 0
            for sent_id in range(rng.randrange(5, 20)):
                gold = rng.choice((MASCULINE, FEMININE))
                hyps = [
                    Hypothesis((rng.choice(vocab),), -rng.randrange(0, 40) / 4)
                    for _ in range(rng.randrange(1, 6))
                ]
                nbest = NBestList(sent_id, hyps)
                alignments = [AlignmentMap({(0, 0)}) for _ in nbest]
                spec = EntitySpec(None, gold, frozenset({0}))
                picked = rerank(nbest, alignments, [spec], BOUND_LEXICON).selected_index

                def predicted(index):
                    return extract_predicted_gender(
                        nbest[index].tokens, alignments[index], {0}, BOUND_LEXICON
                    )

                base_correct += predicted(0) == gold
                oracle_correct += predicted(picked) == gold
            assert oracle_correct >= base_correct


class TestDiagonalAligner:
    def test_links_up_to_shorter_length(self):
        assert diagonal_aligner(("a", "b", "c"), ("x", "y")) == {(0, 0), (1, 1)}
        assert diagonal_aligner((), ("x",)) == set()

    def test_one_shared_immutable_set_per_length(self):
        links = diagonal_aligner(("a", "b"), ("x", "y", "z"))
        assert type(links) is AlignmentMap
        assert diagonal_aligner(("c", "d", "e"), ("u", "v")) is links
        assert AlignmentMap(links) is links
        for length in range(6):
            first = diagonal_aligner(("s",) * length, ("t",) * (length + 1))
            assert type(first) is AlignmentMap
            assert first == {(i, i) for i in range(length)}
            assert diagonal_aligner(("u",) * (length + 2), ("v",) * length) is first


class TestLabelF1:
    def test_zero_when_no_mass(self):
        records = [record(0, MASCULINE, MASCULINE)]
        assert label_f1(records, FEMININE) == 0.0

    def test_report_is_value_comparable(self):
        a = score_records([record(0, MASCULINE, MASCULINE)])
        b = score_records([record(9, MASCULINE, MASCULINE)])
        assert a == b
        assert isinstance(a, MetricReport)
