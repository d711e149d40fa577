"""Metric arithmetic and end-to-end pipeline behavior."""

import random
import zlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genderbeam.decode import BOS, EOS, BeamConfig, Hypothesis, NBestList, TableModel
from genderbeam.errors import DecodeError
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
from helpers import (
    HashScorer,
    LastTokenTable,
    agreement_score,
    pipeline_report,
    reference_extract_predicted_gender,
    reference_pipeline,
)


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

    def test_labels_beyond_the_binary(self):
        # neuter is only predicted, neutral-new is gold and predicted
        records = [
            record(0, MASCULINE, NEUTER),
            record(1, NEUTRAL_NEW, NEUTRAL_NEW),
            record(2, NEUTRAL_NEW, FEMININE),
            record(3, FEMININE, FEMININE),
        ]
        report = score_records(records)
        assert report.other_labels == (("neuter", 0.0, 1), ("neutral-new", pytest.approx(2 / 3), 1))
        assert report.delta_g == report.f1_masculine - report.f1_feminine == pytest.approx(-2 / 3)
        binary = [record(0, MASCULINE, MASCULINE), record(1, FEMININE, None)]
        assert score_records(binary).other_labels == ()

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
        with pytest.raises(ValueError, match="sentence 0: gold gender must be concrete"):
            TestSentence(0, NONE, ("a",), None, frozenset({0}))


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

    def test_widths_are_not_renumbered(self):
        # int(4.7) would run the sweep at width 4 and label the row 4
        args = ([fem_row()], doctor_model(), DOCTOR_PAIRS, DOCTOR_LEXICON)
        with pytest.raises(ValueError, match=r"^beam_width must be an integer, got 4\.7$"):
            beam_sweep(*args, [1, 4.7])


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


# The reference pipeline's inputs: source words, of which "doctor" and "man"
# are nouns and "she" and "he" pronouns; target words, every one of them a
# lexicon entry, in groups that some draws leave out; and a grid of step
# scores, where None leaves the token out of the map
PIPE_SOURCE = ("doctor", "man", "says", "she", "he")
PIPE_NOUNS = ("doctor", "man")
PIPE_PRONOUNS = {"she": FEMININE, "he": MASCULINE}
PIPE_GROUPS = (
    (LexiconEntry("doktoro", "doktoro", "NOUN.sg", MASCULINE),
     LexiconEntry("doktora", "doktoro", "NOUN.sg", FEMININE)),
    (LexiconEntry("viro", "viro", "NOUN.sg", MASCULINE),
     LexiconEntry("virino", "viro", "NOUN.sg", FEMININE)),
    (LexiconEntry("li", "li", "PRON", MASCULINE), LexiconEntry("sxi", "li", "PRON", FEMININE)),
    (LexiconEntry("diras", "diri", "VERB", NONE),),
)
PIPE_ENTRIES = tuple(entry for group in PIPE_GROUPS for entry in group)
PIPE_GRID = (None, -0.0, -0.1, -0.5, -1.0, -3.0)


@st.composite
def pipeline_sentences(draw, sent_id):
    source = tuple(draw(st.lists(st.sampled_from(PIPE_SOURCE), min_size=1, max_size=4)))
    indices = st.integers(0, len(source) - 1)
    return TestSentence(sent_id, draw(st.sampled_from((MASCULINE, FEMININE))), source,
                        draw(st.none() | indices), frozenset(draw(st.sets(indices, min_size=1))))


@st.composite
def pipeline_models(draw, testset):
    """A HashScorer, or a LastTokenTable whose maps come back for prefixes
    that end alike, over a drawn target vocabulary. The table never closes
    the empty prefix, whose 1-best the constrained pass could not reinflect."""
    vocab = tuple(draw(st.lists(st.sampled_from([e.surface for e in PIPE_ENTRIES]),
                                min_size=1, max_size=4, unique=True)))
    if draw(st.booleans()):
        return HashScorer(vocab, include_eos=draw(st.booleans()))
    values = draw(st.lists(st.sampled_from(PIPE_GRID), min_size=2, max_size=6))
    salt = draw(st.integers(0, 2**16))
    entries = {}
    for source in {" ".join(sentence.source) for sentence in testset}:
        for prev in (BOS, *vocab):
            picks = {token: values[zlib.crc32(f"{salt}|{source}|{prev}|{token}".encode()) % len(values)]
                     for token in (vocab if prev == BOS else (*vocab, EOS))}
            # None leaves a word out, so a lattice reads it at the floor; it
            # scores -3.0 instead for EOS and the first word, so no beam dies
            entries[(source, prev)] = {token: -3.0 if lp is None else lp for token, lp in picks.items()
                                       if lp is not None or token == EOS or prev == BOS}
    return LastTokenTable(entries)


def pipeline_or_error(run):
    try:
        return [(record, [(h.tokens, repr(h.loglik)) for h in nbest], selected)
                for record, nbest, selected in run()]
    except DecodeError as exc:
        return str(exc)


class TestReferencePipeline:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_equals_reference_composition(self, data):
        testset = [data.draw(pipeline_sentences(sent_id)) for sent_id in range(data.draw(st.integers(1, 3)))]
        model = data.draw(pipeline_models(testset))
        # whole groups, so that a drawn word has its reinflection or no entry
        groups = data.draw(st.lists(st.sampled_from(PIPE_GROUPS), unique=True))
        lexicon = GenderLexicon(entry for group in groups for entry in group)
        pairs = build_reinflection_pairs(lexicon)
        width = data.draw(st.integers(1, 4))
        cfg = BeamConfig(width, data.draw(st.integers(1, width)), data.draw(st.integers(1, 4)))
        resolver = NearestPrecedingNounResolver(PIPE_NOUNS)
        for constrain in (False, True):
            for mode in ("off", "oracle", "inferred"):
                got = pipeline_or_error(lambda: (
                    (o.record, o.nbest, o.selected_index) for o in run_pipeline(
                        testset, model, pairs, lexicon, constrain=constrain, rerank_mode=mode,
                        cfg=cfg, pronoun_table=PIPE_PRONOUNS, resolver=resolver)))
                want = pipeline_or_error(lambda: reference_pipeline(
                    testset, model, pairs, lexicon, constrain=constrain, rerank_mode=mode,
                    cfg=cfg, pronoun_table=PIPE_PRONOUNS, nouns=PIPE_NOUNS))
                assert got == want
        widths = sorted(data.draw(st.sets(st.integers(1, 4), min_size=1)))
        try:
            expected = [(w, pipeline_report(testset, model, pairs, lexicon, constrain=True,
                                            rerank_mode="oracle",
                                            cfg=BeamConfig(w, w, cfg.max_len)).accuracy)
                        for w in widths]
        except DecodeError:
            with pytest.raises(DecodeError):
                beam_sweep(testset, model, pairs, lexicon, widths, max_len=cfg.max_len)
        else:
            assert beam_sweep(testset, model, pairs, lexicon, widths, max_len=cfg.max_len) == expected
