"""Acceptance gate: one test per criterion, each printing an ACCEPTANCE line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Every expected value here is either asserted against an independent oracle
computed inside the test or hand-derived from the constructions themselves.
"""

import math
import random
import time
from collections import Counter

import pytest

from helpers import deserialize_lattice, enumerate_paths, rescore

from genderbeam.decode import (
    EOS,
    BeamConfig,
    Hypothesis,
    NBestList,
    TableModel,
    beam_search,
    constrained_beam_search,
)
from genderbeam.evaluation import EvalRecord, beam_sweep, run_pipeline, score_records
from genderbeam.formats import (
    parse_alignments,
    parse_nbest,
    write_alignments,
    write_nbest,
)
from genderbeam.lattice import HypothesisLattice, LatticeArc, compose_lattice, serialize_lattice
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
    load_lexicon,
    write_lexicon,
)
from genderbeam.rerank import AlignmentMap, EntitySpec, inject_placeholder, rerank
from genderbeam.synth import build_benchmark


@pytest.fixture(scope="module")
def bench():
    return build_benchmark(0)


def entry(surface, lemma, features, gender):
    return LexiconEntry(surface, lemma, features, gender)


def test_criterion_1_article_noun_lattice_fidelity():
    started = time.monotonic()
    lexicon = GenderLexicon([
        entry("el", "el", "ART.sg", MASCULINE),
        entry("la", "el", "ART.sg", FEMININE),
        entry("médico", "médico", "NOUN.sg", MASCULINE),
        entry("médica", "médico", "NOUN.sg", FEMININE),
    ])
    pairs = build_reinflection_pairs(lexicon)
    assert pairs.pairs == frozenset({
        ("el", "la", FEMININE), ("la", "el", MASCULINE),
        ("médico", "médica", FEMININE), ("médica", "médico", MASCULINE),
    })

    lattice = compose_lattice(pairs, ("el", "médico"), lexicon=lexicon)
    paths = enumerate_paths(lattice)
    assert {words for words, _ in paths} == {
        ("el", "médico"), ("el", "médica"), ("la", "médico"), ("la", "médica"),
    }

    source = ("the", "doctor")
    src = " ".join(source)
    model = TableModel({
        (src, "<s>"): {"el": -0.1, "la": -0.4},
        (src, "el"): {"médico": -0.2, "médica": -0.3},
        (src, "la"): {"médico": -0.5, "médica": -0.2},
        (src, "el médico"): {EOS: -0.1},
        (src, "el médica"): {EOS: -0.1},
        (src, "la médico"): {EOS: -0.1},
        (src, "la médica"): {EOS: -0.1},
    })
    nbest = constrained_beam_search(model, source, lattice, BeamConfig(4, 4, 8))
    oracle = sorted(
        ((rescore(model, source, words), words) for words, _ in paths),
        key=lambda pair: (-pair[0], pair[1]),
    )
    assert len(nbest) == 4
    for hyp, (loglik, words) in zip(nbest, oracle):
        assert hyp.tokens == words
        assert hyp.loglik == pytest.approx(loglik, abs=1e-9)

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print("ACCEPTANCE 1: PASS")


def random_lattice_and_model(rng, case):
    words = [f"w{k}" for k in range(10)]
    lattice = HypothesisLattice(
        [LatticeArc(word, (word,)) for word in rng.sample(words, rng.randint(1, 3))]
        for _ in range(rng.randint(1, 4))
    )

    source = (f"case{case}",)
    src = " ".join(source)
    entries = {}
    for tokens, _ in enumerate_paths(lattice):
        prefix = "<s>"
        for token in tokens:
            row = entries.setdefault((src, prefix), {})
            if token not in row:
                row[token] = rng.uniform(-5.0, -0.1)
            prefix = token if prefix == "<s>" else f"{prefix} {token}"
        entries.setdefault((src, prefix), {}).setdefault(EOS, rng.uniform(-2.0, -0.1))
    return lattice, TableModel(entries), source


def test_criterion_2_containment_and_exactness():
    started = time.monotonic()
    rng = random.Random(20260815)
    for case in range(100):
        lattice, model, source = random_lattice_and_model(rng, case)
        path_tokens = {words for words, _ in enumerate_paths(lattice)}

        width = rng.randint(1, 3)
        narrow = constrained_beam_search(model, source, lattice, BeamConfig(width, width, 8))
        for hyp in narrow:
            assert hyp.tokens in path_tokens
            assert hyp.loglik == pytest.approx(rescore(model, source, hyp.tokens), abs=1e-9)

        count = lattice.path_count
        full = constrained_beam_search(model, source, lattice, BeamConfig(count, count, 8))
        oracle = sorted(
            ((rescore(model, source, words), words) for words in path_tokens),
            key=lambda pair: (-pair[0], pair[1]),
        )
        assert len(full) == count
        for hyp, (loglik, words) in zip(full, oracle):
            assert hyp.tokens == words
            assert hyp.loglik == pytest.approx(loglik, abs=1e-9)

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print("ACCEPTANCE 2: PASS")


def test_criterion_3_permissive_lattice_equals_unconstrained():
    vocab = ("a", "b", "c")
    length = 4
    rng = random.Random(3)
    permissive = HypothesisLattice([LatticeArc(word, (word,)) for word in vocab] for _ in range(length))
    for sentence in range(20):
        source = (f"sent{sentence}",)
        src = " ".join(source)
        entries = {}
        prefixes = [()]
        for _ in range(length):
            for prefix in prefixes:
                key = " ".join(prefix) if prefix else "<s>"
                entries[(src, key)] = {word: rng.uniform(-4.0, -0.1) for word in vocab}
            prefixes = [(*prefix, word) for prefix in prefixes for word in vocab]
        for prefix in prefixes:
            entries[(src, " ".join(prefix))] = {EOS: rng.uniform(-2.0, -0.1)}
        model = TableModel(entries)

        cfg = BeamConfig(5, 5, 8)
        unconstrained = beam_search(model, source, cfg)
        constrained = constrained_beam_search(model, source, permissive, cfg)
        assert len(constrained) == len(unconstrained) == 5
        for left, right in zip(constrained, unconstrained):
            assert left.tokens == right.tokens
            assert left.loglik == pytest.approx(right.loglik, abs=1e-9)
    print("ACCEPTANCE 3: PASS")


WORD_GENDERS = {
    **{f"m{k}": {MASCULINE} for k in range(4)},
    **{f"f{k}": {FEMININE} for k in range(4)},
    **{f"x{k}": set() for k in range(4)},
}


def test_criterion_4_rerank_equals_exhaustive_argmax():
    lexicon = GenderLexicon([
        entry(word, word, "NOUN", gender)
        for word, genders in WORD_GENDERS.items()
        for gender in genders
    ])
    vocab = sorted(WORD_GENDERS)
    rng = random.Random(4)
    for case in range(1000):
        size = rng.randint(1, 6)
        width = rng.randint(1, 6)
        nbest = NBestList(case, [
            Hypothesis(tuple(rng.choice(vocab) for _ in range(width)), rng.uniform(-20.0, -1.0))
            for _ in range(size)
        ])
        alignments = [
            AlignmentMap({
                (rng.randrange(4), rng.randrange(width + 2))
                for _ in range(rng.randint(0, 6))
            })
            for _ in range(size)
        ]
        entities = [
            EntitySpec(
                rng.choice([None, 0]),
                rng.choice([MASCULINE, FEMININE]),
                frozenset(rng.sample(range(4), rng.randint(1, 3))),
            )
            for _ in range(rng.randint(1, 2))
        ]

        # independent agreement count from raw links and the gender table;
        # each entity scores its set of aligned target tokens, so a target
        # reached from two source indices still counts once per entity
        scores = []
        for hyp, alignment in zip(nbest, alignments):
            total = 0
            for spec in entities:
                targets = {
                    tgt_index
                    for src_index, tgt_index in alignment
                    if src_index in spec.entity_indices
                }
                total += sum(
                    1
                    for tgt_index in targets
                    if tgt_index < len(hyp.tokens)
                    and spec.required_gender in WORD_GENDERS[hyp.tokens[tgt_index]]
                )
            scores.append(total)
        expected = max(range(size), key=lambda i: (scores[i], nbest[i].loglik, -i))

        result = rerank(nbest, alignments, entities, lexicon)
        assert result.selected_index == expected
        assert list(result.agreement_scores) == scores

    # worked two-hypothesis example: feminine request picks the lower-scored
    # feminine variant, masculine request keeps the likelihood winner
    witness = GenderLexicon([
        entry("der", "der", "ART.sg", MASCULINE),
        entry("die", "der", "ART.sg", FEMININE),
        entry("Zeuge", "Zeuge", "NOUN.sg", MASCULINE),
        entry("Zeugin", "Zeuge", "NOUN.sg", FEMININE),
    ])
    nbest = NBestList(0, [
        Hypothesis(("der", "Zeuge"), -12.3),
        Hypothesis(("die", "Zeugin"), -14.6),
    ])
    diagonal = [AlignmentMap({(0, 0), (1, 1)})] * 2
    spec = lambda gender: [EntitySpec(0, gender, frozenset({0, 1}))]
    feminine_pick = rerank(nbest, diagonal, spec(FEMININE), witness)
    assert feminine_pick.selected_hypothesis == Hypothesis(("die", "Zeugin"), -14.6)
    masculine_pick = rerank(nbest, diagonal, spec(MASCULINE), witness)
    assert masculine_pick.selected_hypothesis == Hypothesis(("der", "Zeuge"), -12.3)
    print("ACCEPTANCE 4: PASS")


def test_criterion_5_benchmark_accuracy_ordering(bench):
    started = time.monotonic()
    cfg = BeamConfig(20, 20, 16)

    def run(constrain, mode):
        outcomes = run_pipeline(
            bench.testset, bench.model, bench.pairs, bench.lexicon,
            constrain=constrain, rerank_mode=mode, cfg=cfg,
        )
        return score_records([outcome.record for outcome in outcomes])

    baseline = run(False, "off")
    reranked = run(False, "oracle")
    combined = run(True, "oracle")

    assert combined.accuracy >= reranked.accuracy >= baseline.accuracy
    assert reranked.accuracy - baseline.accuracy >= 0.20
    assert abs(combined.delta_g) < abs(baseline.delta_g)

    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print("ACCEPTANCE 5: PASS")


def test_criterion_6_placeholder_uniquely_selected():
    new_label = GenderLabel("neutral-new")
    lexicon = GenderLexicon(
        [
            entry("der", "der", "ART.sg", MASCULINE),
            entry("die", "der", "ART.sg", FEMININE),
            entry("Arbeiter", "Arbeiter", "NOUN.sg", MASCULINE),
            entry("Arbeiterin", "Arbeiter", "NOUN.sg", FEMININE),
        ],
        [
            PlaceholderPattern("exact-token", "DEFNOM", new_label),
            PlaceholderPattern("suffix", "NEND", new_label),
        ],
    )
    placeholder = ("DEFNOM", "ArbeiterNEND")
    originals = [("der", "Arbeiter"), ("die", "Arbeiterin")]
    rng = random.Random(6)
    selected = 0
    for case in range(50):
        size = rng.randint(2, 5)
        hyps = [
            Hypothesis(rng.choice(originals), rng.uniform(-15.0, -5.0))
            for _ in range(size)
        ]
        nbest = NBestList(case, hyps)
        mean = math.fsum(hyp.loglik for hyp in nbest) / len(nbest)

        injected = inject_placeholder(nbest, placeholder)
        assert len(injected) == size + 1
        injected_loglik = next(h.loglik for h in injected if h.tokens == placeholder)
        assert injected_loglik == pytest.approx(mean, abs=1e-12)

        alignments = [AlignmentMap({(0, 0), (1, 1)})] * len(injected)
        entities = [EntitySpec(None, new_label, frozenset({0, 1}))]
        result = rerank(injected, alignments, entities, lexicon)
        # both placeholder tokens match the patterns; no original can, so the
        # placeholder is always the unique agreement maximizer here
        assert max(result.agreement_scores) == 2
        assert result.agreement_scores.count(2) == 1
        if result.selected_hypothesis.tokens == placeholder:
            selected += 1
    assert selected == 50
    print("ACCEPTANCE 6: PASS")


def test_criterion_7_sweep_monotone_with_diminishing_gains(bench):
    rows = beam_sweep(
        bench.testset, bench.model, bench.pairs, bench.lexicon,
        [4, 8, 12, 16, 20], max_len=16,
    )
    accuracies = [accuracy for _, accuracy in rows]
    assert all(later >= earlier for earlier, later in zip(accuracies, accuracies[1:]))
    gains = [later - earlier for earlier, later in zip(accuracies, accuracies[1:])]
    assert all(second <= first + 1e-12 for first, second in zip(gains, gains[1:]))
    print("ACCEPTANCE 7: PASS")


def test_criterion_8_metric_worked_example_and_antisymmetry():
    records = [
        EvalRecord(0, MASCULINE, MASCULINE),
        EvalRecord(1, MASCULINE, MASCULINE),
        EvalRecord(2, FEMININE, MASCULINE),
        EvalRecord(3, FEMININE, FEMININE),
    ]
    report = score_records(records)
    assert report.accuracy == pytest.approx(0.75, abs=1e-9)
    assert report.delta_g == pytest.approx(2 / 15, abs=1e-9)

    swap = {MASCULINE: FEMININE, FEMININE: MASCULINE}
    rng = random.Random(8)
    for _ in range(100):
        size = rng.randint(1, 30)
        records = [
            EvalRecord(
                index,
                rng.choice([MASCULINE, FEMININE]),
                rng.choice([MASCULINE, FEMININE, None]),
            )
            for index in range(size)
        ]
        swapped = [
            EvalRecord(r.sent_id, swap[r.gold_gender], swap.get(r.predicted_gender))
            for r in records
        ]
        assert score_records(swapped).delta_g == -score_records(records).delta_g
    print("ACCEPTANCE 8: PASS")


TOKEN_POOL = ("el", "la", "médico", "médica", "der", "die", "Zeugin", "niño", "w1", "w2")


def test_criterion_9_round_trips(tmp_path):
    rng = random.Random(9)

    nbest_path = tmp_path / "lists.nbest"
    for _ in range(200):
        lists = {}
        for sent_id in rng.sample(range(50), rng.randint(1, 3)):
            lists[sent_id] = NBestList(sent_id, [
                Hypothesis(
                    tuple(rng.choice(TOKEN_POOL) for _ in range(rng.randint(1, 4))),
                    round(rng.uniform(-30.0, 0.0), 6),
                )
                for _ in range(rng.randint(1, 4))
            ])
        write_nbest(lists.values(), nbest_path)
        assert parse_nbest(nbest_path) == lists

    align_path = tmp_path / "links.align"
    for _ in range(200):
        table = {
            (rng.randrange(20), rank): AlignmentMap({
                (rng.randrange(6), rng.randrange(6)) for _ in range(rng.randint(0, 5))
            })
            for rank in range(rng.randint(1, 4))
        }
        write_alignments(table, align_path)
        assert parse_alignments(align_path) == table

    genders = (MASCULINE, FEMININE, NEUTER, NONE)
    for _ in range(200):
        positions = [[] for _ in range(rng.randint(1, 4))]
        for arcs in positions:
            for word in rng.sample(TOKEN_POOL, rng.randint(1, 3)):
                tokens = (word,) if rng.random() < 0.7 else (word[:2] + "@@", word[2:] or "x")
                arcs.append(LatticeArc(word, tokens, rng.choice(genders)))
        lattice = HypothesisLattice(positions)
        assert deserialize_lattice(serialize_lattice(lattice)) == lattice

    lexicon_path = tmp_path / "lex.tsv"
    features_pool = ("NOUN.sg", "NOUN.pl", "ADJ.sg", "ART.sg")
    for _ in range(200):
        entries = {
            entry(
                rng.choice(TOKEN_POOL),
                rng.choice(TOKEN_POOL),
                rng.choice(features_pool),
                rng.choice((MASCULINE, FEMININE, NEUTER)),
            )
            for _ in range(rng.randint(1, 8))
        }
        deduped = {}
        for item in entries:  # one lemma per (surface, features, gender) key
            deduped.setdefault((item.surface, item.features, item.gender), item)
        lexicon = GenderLexicon(deduped.values())
        write_lexicon(lexicon, lexicon_path)
        assert load_lexicon(lexicon_path) == lexicon
    print("ACCEPTANCE 9: PASS")
