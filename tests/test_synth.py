"""Structure and calibration of the bundled synthetic benchmark."""

from collections import Counter

import pytest

from genderbeam.decode import BeamConfig, NoisyChannelToy, beam_search, two_pass_decode
from genderbeam.evaluation import beam_sweep
from genderbeam.formats import read_pronoun_table, read_testset, read_word_list
from genderbeam.morpho import FEMININE, MASCULINE, analyze_gender, load_lexicon, read_pairs
from genderbeam.rerank import NearestPrecedingNounResolver
from genderbeam.synth import (
    FEM_RANK_COUNTS,
    FLOOR_ROW_COUNT,
    FRAME_CLASSES,
    build_benchmark,
    write_benchmark,
)
from helpers import pipeline_report

WIDE = BeamConfig(20, 20, max_len=16)


@pytest.fixture(scope="module")
def bench():
    return build_benchmark(0)


class TestStructure:
    def test_row_and_corpus_counts(self, bench):
        assert len(bench.testset) == 200
        assert sum(1 for s in bench.testset if s.gold_gender == FEMININE) == 100
        # 200 rows x 64 gender combinations x 2 verb synonyms
        assert len(bench.corpus) == 25_600
        assert all(len(line) == 11 for line in bench.corpus)

    def test_pair_count(self, bench):
        # 6 gendered stems per frame class, both directions
        assert len(list(iter(bench.pairs))) == 48

    def test_no_vocabulary_collisions(self, bench):
        forms = set()
        for line in bench.corpus[:512]:  # 128 lines per row covers all 4 classes
            forms.update(line)
        per_class = 2 * 6 + 2 + 4  # gendered forms + verbs + connectors
        assert len(forms) == per_class * 4

    def test_gendered_analysis(self, bench):
        assert analyze_gender(bench.lexicon, "pentristo") == {MASCULINE}
        assert analyze_gender(bench.lexicon, "pentrista") == {FEMININE}
        assert analyze_gender(bench.lexicon, "ela") == {FEMININE}
        assert analyze_gender(bench.lexicon, "cxar") == frozenset()

    def test_rank_assignment_accounts_for_every_feminine_row(self, bench):
        counts = Counter(bench.fem_ranks.values())
        assert counts.pop(None) == FLOOR_ROW_COUNT
        assert dict(counts) == FEM_RANK_COUNTS


class TestModelBias:
    def test_canonical_masculine_one_best(self, bench):
        best = beam_search(bench.model, bench.testset[0].source, BeamConfig(4, 1, 16))
        assert best[0].tokens == (
            "pentristo", "pentras", "muro", "cxar", "elo", "estis",
            "alto", "sed", "juno", "kaj", "lerto",
        )
        for row in (1, 2, 3, 101):
            cls = FRAME_CLASSES[row % 4]
            best = beam_search(bench.model, bench.testset[row].source, BeamConfig(4, 1, 16))
            tokens = best[0].tokens
            assert tokens[0] == cls.noun + "o"
            assert tokens[1] == cls.verbs[0]
            assert all(not t.endswith("a") for t in tokens)


def first_agree_rank(bench, row, width):
    sentence = bench.testset[row]
    cfg = BeamConfig(width, width, 16)
    nbest = two_pass_decode(
        bench.model, sentence.source, bench.pairs, cfg, cfg,
        lexicon=bench.lexicon, source_id=row,
    )
    for position, hyp in enumerate(nbest, 1):
        if FEMININE in analyze_gender(bench.lexicon, hyp.tokens[0]):
            return position
    return None


class TestRankCalibration:
    def test_every_feminine_row_sits_at_its_designed_rank(self, bench):
        for row in range(100):
            designed = bench.fem_ranks[row]
            observed = first_agree_rank(bench, row, 64)
            if designed is None:
                # lexical-gap rows: the agreeing variant exists in the
                # 64-path lattice but only at floor score, beyond width 20
                assert observed is not None and observed > 20, row
            else:
                assert observed == designed, row


class TestExpectedMetrics:
    def test_baseline(self, bench):
        report = pipeline_report(
            bench.testset, bench.model, bench.pairs, bench.lexicon,
            constrain=False, rerank_mode="off", cfg=WIDE,
        )
        assert report.accuracy == pytest.approx(0.50, abs=1e-12)
        assert report.delta_g == pytest.approx(2 / 3, abs=1e-9)

    def test_oracle_rerank(self, bench):
        report = pipeline_report(
            bench.testset, bench.model, bench.pairs, bench.lexicon,
            constrain=False, rerank_mode="oracle", cfg=WIDE,
        )
        assert report.accuracy == pytest.approx(0.84, abs=1e-12)

    def test_constrain_plus_oracle(self, bench):
        report = pipeline_report(
            bench.testset, bench.model, bench.pairs, bench.lexicon,
            constrain=True, rerank_mode="oracle", cfg=WIDE,
        )
        assert report.accuracy == pytest.approx(0.92, abs=1e-12)
        assert report.f1_masculine == pytest.approx(200 / 216, abs=1e-9)
        assert report.f1_feminine == pytest.approx(168 / 184, abs=1e-9)
        assert report.delta_g == pytest.approx(200 / 216 - 168 / 184, abs=1e-9)

    def test_low_width_sweep_points(self, bench):
        rows = beam_sweep(
            bench.testset, bench.model, bench.pairs, bench.lexicon, [4, 8], max_len=16
        )
        assert rows == [(4, pytest.approx(0.70)), (8, pytest.approx(0.80))]

    def test_inferred_matches_oracle_here(self, bench):
        cfg = BeamConfig(8, 8, 16)
        resolver = NearestPrecedingNounResolver(bench.noun_words)
        inferred = pipeline_report(
            bench.testset, bench.model, bench.pairs, bench.lexicon,
            constrain=True, rerank_mode="inferred", cfg=cfg,
            pronoun_table=bench.pronoun_table, resolver=resolver,
        )
        oracle = pipeline_report(
            bench.testset, bench.model, bench.pairs, bench.lexicon,
            constrain=True, rerank_mode="oracle", cfg=cfg,
        )
        assert inferred == oracle


class TestSeedBehavior:
    def test_same_seed_reproduces(self, bench):
        again = build_benchmark(0)
        assert dict(again.lexical) == dict(bench.lexical)
        assert again.corpus == bench.corpus
        assert again.testset == bench.testset

    def test_other_seed_permutes_ranks_only(self, bench):
        other = build_benchmark(7)
        assert Counter(other.fem_ranks.values()) == Counter(bench.fem_ranks.values())
        assert dict(other.lexical) != dict(bench.lexical)
        assert other.corpus == bench.corpus  # target language itself is fixed


class TestWrittenFiles:
    def test_round_trip_through_files(self, bench, tmp_path):
        paths = write_benchmark(bench, tmp_path)
        assert load_lexicon(paths["lexicon"]) == bench.lexicon
        assert read_pairs(paths["pairs"]) == bench.pairs
        assert read_testset(paths["testset"]) == list(bench.testset)
        assert read_pronoun_table(paths["pronouns"]) == dict(bench.pronoun_table)
        assert read_word_list(paths["nouns"]) == bench.noun_words

        reloaded = NoisyChannelToy.from_files(paths["lexical"], paths["corpus"])
        source = bench.testset[0].source
        for prefix in ((), ("pentristo",), ("pentristo", "pentras")):
            assert reloaded.next_scores(source, prefix) == bench.model.next_scores(source, prefix)
