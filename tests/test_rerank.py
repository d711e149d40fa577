import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genderbeam.decode import Hypothesis, NBestList
from genderbeam.errors import RerankError
from genderbeam.morpho import (
    FEMININE,
    MASCULINE,
    GenderLabel,
    GenderLexicon,
    LexiconEntry,
    PlaceholderPattern,
    register_placeholder_patterns,
)
from genderbeam.rerank import (
    AlignmentMap,
    EntitySpec,
    NearestPrecedingNounResolver,
    agreement_score,
    get_entity,
    inject_placeholder,
    pronoun_and_gender,
    rerank,
    rerank_named_entity,
)

NEUTRAL_NEW = GenderLabel("neutral-new")

PRONOUNS = {"he": MASCULINE, "she": FEMININE, "they": NEUTRAL_NEW, "them": NEUTRAL_NEW}

GERMAN_LEXICON = GenderLexicon(
    [
        LexiconEntry("der", "der", "ART.rel", MASCULINE),
        LexiconEntry("die", "der", "ART.rel", FEMININE),
        LexiconEntry("Maklerin", "Makler", "NOUN.sg", FEMININE),
        LexiconEntry("Makler", "Makler", "NOUN.sg", MASCULINE),
    ]
)


def relative_clause_list():
    """Four hypotheses differing in relative pronoun and tense; feminine
    variants score lower than their masculine twins."""
    short = ("Heute", "hat", "Calderon", ",", "{rel}", "den", "Vorsitz", "innehatte")
    long = ("Heute", "hat", "Calderon", ",", "{rel}", "den", "Vorsitz", "innegehabt", "hat")
    hyps = [
        Hypothesis(tuple(t.format(rel="der") for t in short), -12.3),
        Hypothesis(tuple(t.format(rel="die") for t in short), -14.6),
        Hypothesis(tuple(t.format(rel="der") for t in long), -24.3),
        Hypothesis(tuple(t.format(rel="die") for t in long), -26.5),
    ]
    nbest = NBestList(3, hyps)
    alignments = [AlignmentMap([(3, 4)]) for _ in hyps]
    return nbest, alignments


class TestPronounAndGender:
    def test_finds_she_with_position(self):
        source = ("The", "broker", "laughed", "because", "she", "had", "new", "stocks")
        assert pronoun_and_gender(source, PRONOUNS) == [(4, FEMININE)]

    def test_no_pronouns(self):
        assert pronoun_and_gender(("just", "nouns", "here"), PRONOUNS) == []

    def test_case_insensitive_both_sides(self):
        assert pronoun_and_gender(("She", "spoke"), {"sHe": FEMININE}) == [(0, FEMININE)]

    def test_neutral_new_pronouns(self):
        source = ("ask", "them", "if", "they", "agree")
        assert pronoun_and_gender(source, PRONOUNS) == [
            (1, NEUTRAL_NEW),
            (3, NEUTRAL_NEW),
        ]


class TestGetEntity:
    def test_nearest_preceding_noun(self):
        source = ("The", "doctor", "asked", "a", "question", "because", "she", "wanted", "details")
        resolver = NearestPrecedingNounResolver(["doctor"])
        assert get_entity(source, 6, resolver) == {1}

    def test_no_preceding_candidate(self):
        resolver = NearestPrecedingNounResolver(["doctor"])
        assert get_entity(("she", "asked", "the", "doctor"), 0, resolver) == frozenset()

    def test_two_candidates_nearer_wins(self):
        source = ("The", "teacher", "met", "the", "cleaner", "before", "she", "left")
        resolver = NearestPrecedingNounResolver(["teacher", "cleaner"])
        assert get_entity(source, 6, resolver) == {4}

    def test_resolver_failure_degrades_to_empty(self):
        class Exploding:
            def resolve(self, source, pronoun_index):
                raise RuntimeError("model unavailable")

        assert get_entity(("she",), 0, Exploding()) == frozenset()

    def test_out_of_range_resolver_output_filtered(self):
        class OffByMiles:
            def resolve(self, source, pronoun_index):
                return {0, 99}

        assert get_entity(("she", "ran"), 1, OffByMiles()) == {0}

    def test_invalid_pronoun_index(self):
        with pytest.raises(ValueError):
            get_entity(("she",), 5, NearestPrecedingNounResolver([]))


class TestAgreementScore:
    def test_relative_pronoun_match(self):
        nbest, alignments = relative_clause_list()
        entity = EntitySpec(None, FEMININE, frozenset({3}))
        scores = [
            agreement_score(h.tokens, a, [entity], GERMAN_LEXICON)
            for h, a in zip(nbest, alignments)
        ]
        assert scores == [0, 1, 0, 1]

    def test_empty_entities_scores_zero(self):
        nbest, alignments = relative_clause_list()
        assert agreement_score(nbest[0].tokens, alignments[0], [], GERMAN_LEXICON) == 0

    def test_two_entities_sum(self):
        hyp = ("die", "Maklerin", "lachte")
        alignment = AlignmentMap([(0, 0), (1, 1), (4, 2)])
        entities = [
            EntitySpec(None, FEMININE, frozenset({0, 1})),
            EntitySpec(None, FEMININE, frozenset({4})),
        ]
        assert agreement_score(hyp, alignment, entities, GERMAN_LEXICON) == 2

    def test_out_of_range_target_ignored(self):
        alignment = AlignmentMap([(0, 12)])
        entity = EntitySpec(None, FEMININE, frozenset({0}))
        assert agreement_score(("die",), alignment, [entity], GERMAN_LEXICON) == 0

    def test_empty_alignment_contributes_zero(self):
        entity = EntitySpec(None, FEMININE, frozenset({0}))
        assert agreement_score(("die",), AlignmentMap(), [entity], GERMAN_LEXICON) == 0


class TestRerank:
    def test_feminine_entity_selects_second(self):
        nbest, alignments = relative_clause_list()
        entity = EntitySpec(None, FEMININE, frozenset({3}))
        result = rerank(nbest, alignments, [entity], GERMAN_LEXICON)
        assert result.selected_index == 1
        assert result.selected_hypothesis.loglik == -14.6
        assert result.agreement_scores == (0, 1, 0, 1)

    def test_masculine_entity_keeps_first(self):
        nbest, alignments = relative_clause_list()
        entity = EntitySpec(None, MASCULINE, frozenset({3}))
        result = rerank(nbest, alignments, [entity], GERMAN_LEXICON)
        assert result.selected_index == 0
        assert result.agreement_scores == (1, 0, 1, 0)

    def test_all_tied_falls_to_loglik(self):
        nbest, alignments = relative_clause_list()
        result = rerank(nbest, alignments, [], GERMAN_LEXICON)
        assert result.selected_index == 0

    def test_agreement_tie_broken_by_loglik(self):
        # agreement maxima at logliks -5 and -9; the -5 hypothesis must win
        hyps = [Hypothesis((t,), lp) for t, lp in [("a", -9.0), ("b", -3.0), ("c", -5.0)]]
        nbest = NBestList(0, hyps)
        assert [h.loglik for h in nbest] == [-3.0, -5.0, -9.0]
        lexicon = GenderLexicon(
            [
                LexiconEntry("a", "x", "F", FEMININE),
                LexiconEntry("b", "x", "F", FEMININE),
                LexiconEntry("c", "x", "F", FEMININE),
            ]
        )
        alignments = [
            AlignmentMap([(0, 0)]),
            AlignmentMap([(0, 0), (1, 0)]),
            AlignmentMap([(0, 0), (1, 0)]),
        ]
        entities = [
            EntitySpec(None, FEMININE, frozenset({0})),
            EntitySpec(None, FEMININE, frozenset({1})),
        ]
        result = rerank(nbest, alignments, entities, lexicon)
        assert result.agreement_scores == (1, 2, 2)
        assert result.selected_index == 1
        assert result.selected_hypothesis.loglik == -5.0

    def test_empty_list_rejected(self):
        with pytest.raises(RerankError):
            rerank(NBestList(0, []), [], [], GERMAN_LEXICON)

    def test_alignment_count_mismatch_rejected(self):
        nbest, alignments = relative_clause_list()
        with pytest.raises(RerankError):
            rerank(nbest, alignments[:-1], [], GERMAN_LEXICON)

    def test_all_masculine_list_falls_back_to_loglik(self):
        # every variant uses der: agreement cannot distinguish, rank 0 wins
        hyps = [
            Hypothesis(("der", "Makler", "lachte"), -8.0),
            Hypothesis(("der", "Makler", "grinste"), -9.0),
        ]
        alignments = [AlignmentMap([(1, 0)]), AlignmentMap([(1, 0)])]
        entity = EntitySpec(None, FEMININE, frozenset({1}))
        result = rerank(NBestList(0, hyps), alignments, [entity], GERMAN_LEXICON)
        assert result.selected_index == 0

    def test_feminine_variant_present_gets_selected(self):
        hyps = [
            Hypothesis(("der", "Makler", "lachte"), -8.0),
            Hypothesis(("die", "Maklerin", "lachte"), -9.5),
        ]
        alignments = [AlignmentMap([(1, 1)]), AlignmentMap([(1, 1)])]
        entity = EntitySpec(None, FEMININE, frozenset({1}))
        result = rerank(NBestList(0, hyps), alignments, [entity], GERMAN_LEXICON)
        assert result.selected_hypothesis.tokens == ("die", "Maklerin", "lachte")

    def test_empty_alignment_row_contributes_zero(self):
        hyps = [
            Hypothesis(("die", "Lehrerin"), -4.0),
            Hypothesis(("die", "Lehrerin"), -6.0),
        ]
        alignments = [AlignmentMap(), AlignmentMap([(0, 0)])]
        entity = EntitySpec(None, FEMININE, frozenset({0}))
        result = rerank(NBestList(0, hyps), alignments, [entity], GERMAN_LEXICON)
        # only the second row has evidence, so it wins despite lower loglik
        assert result.selected_index == 1


def scan_oracle(nbest, alignments, entities, lexicon):
    best_key, best_index = None, None
    for i, (hyp, alignment) in enumerate(zip(nbest, alignments)):
        key = (agreement_score(hyp.tokens, alignment, entities, lexicon), hyp.loglik, -i)
        if best_key is None or key > best_key:
            best_key, best_index = key, i
    return best_index


def random_instance(rng):
    lexicon = GenderLexicon(
        [LexiconEntry(f"m{i}", f"lm{i}", "N", MASCULINE) for i in range(3)]
        + [LexiconEntry(f"f{i}", f"lf{i}", "N", FEMININE) for i in range(3)]
        + [
            LexiconEntry("amb", "amb", "N", MASCULINE),
            LexiconEntry("amb", "amb", "N", FEMININE),
        ]
    )
    vocab = ["m0", "m1", "m2", "f0", "f1", "f2", "amb", "p0", "p1"]
    hyps = []
    for _ in range(rng.randint(1, 8)):
        tokens = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
        hyps.append(Hypothesis(tokens, -rng.randrange(0, 40) / 4))
    nbest = NBestList(0, hyps)
    alignments = [
        AlignmentMap(
            (rng.randrange(0, 6), rng.randrange(0, 7)) for _ in range(rng.randint(0, 4))
        )
        for _ in nbest
    ]
    entities = [
        EntitySpec(
            rng.choice([None, 0]),
            rng.choice([MASCULINE, FEMININE]),
            frozenset(rng.sample(range(6), rng.randint(1, 3))),
        )
        for _ in range(rng.randint(0, 2))
    ]
    return nbest, alignments, entities, lexicon


class TestRerankProperties:
    def test_matches_exhaustive_scan(self):
        rng = random.Random(97)
        for _ in range(200):
            nbest, alignments, entities, lexicon = random_instance(rng)
            result = rerank(nbest, alignments, entities, lexicon)
            assert result.selected_index == scan_oracle(nbest, alignments, entities, lexicon)

    def test_dominance_and_fallback(self):
        rng = random.Random(101)
        for _ in range(100):
            nbest, alignments, entities, lexicon = random_instance(rng)
            result = rerank(nbest, alignments, entities, lexicon)
            assert max(result.agreement_scores) == result.agreement_scores[result.selected_index]
            if len(set(result.agreement_scores)) == 1:
                assert result.selected_index == 0

    def test_truncation_monotone(self):
        rng = random.Random(103)
        for _ in range(50):
            nbest, alignments, entities, lexicon = random_instance(rng)
            previous = -1
            for k in range(1, len(nbest) + 1):
                prefix = NBestList(0, nbest.hypotheses[:k])
                result = rerank(prefix, alignments[:k], entities, lexicon)
                score = result.agreement_scores[result.selected_index]
                assert score >= previous
                previous = score

    def test_selection_invariant_under_monotone_loglik_transforms(self):
        rng = random.Random(107)
        for _ in range(50):
            nbest, alignments, entities, lexicon = random_instance(rng)
            baseline = rerank(nbest, alignments, entities, lexicon)
            squeezed = NBestList(
                0, [Hypothesis(h.tokens, h.loglik / 3 - 2.0) for h in nbest]
            )
            transformed = rerank(squeezed, alignments, entities, lexicon)
            assert transformed.selected_index == baseline.selected_index


class TestInjectPlaceholder:
    def test_mean_sits_between(self):
        nbest = NBestList(0, [Hypothesis(("a",), -10.0), Hypothesis(("b",), -20.0)])
        injected = inject_placeholder(nbest, ("DEFNOM", "MitarbeiterNEND"))
        assert [h.loglik for h in injected] == [-10.0, -15.0, -20.0]
        assert injected[1].tokens == ("DEFNOM", "MitarbeiterNEND")

    def test_singleton_tie_keeps_original_first(self):
        nbest = NBestList(0, [Hypothesis(("a",), -7.0)])
        injected = inject_placeholder(nbest, ("x",))
        assert [h.tokens for h in injected] == [("a",), ("x",)]
        assert injected[1].loglik == -7.0

    def test_twenty_item_mean(self):
        rng = random.Random(109)
        hyps = [Hypothesis((f"t{i}",), -rng.uniform(1, 50)) for i in range(20)]
        nbest = NBestList(0, hyps)
        injected = inject_placeholder(nbest, ("x",))
        mean = sum(h.loglik for h in nbest) / 20
        placeholder = next(h for h in injected if h.tokens == ("x",))
        assert placeholder.loglik == pytest.approx(mean, abs=1e-12)
        logliks = [h.loglik for h in injected]
        assert logliks == sorted(logliks, reverse=True)

    def test_empty_list_rejected(self):
        with pytest.raises(RerankError):
            inject_placeholder(NBestList(0, []), ("x",))

    def test_placeholder_wins_rerank_despite_rank(self):
        lexicon = register_placeholder_patterns(
            GERMAN_LEXICON,
            [
                PlaceholderPattern("exact-token", "DEFNOM", NEUTRAL_NEW),
                PlaceholderPattern("suffix", "NEND", NEUTRAL_NEW),
            ],
        )
        nbest = NBestList(
            0,
            [
                Hypothesis(("der", "Mitarbeiter"), -3.0),
                Hypothesis(("die", "Mitarbeiterin"), -4.0),
            ],
        )
        injected = inject_placeholder(nbest, ("DEFNOM", "MitarbeiterNEND"))
        # mean of -3 and -4 slots the placeholder into the middle
        assert injected[1].tokens == ("DEFNOM", "MitarbeiterNEND")
        alignments = [AlignmentMap([(0, 0), (0, 1)]) for _ in injected]
        entity = EntitySpec(None, NEUTRAL_NEW, frozenset({0}))
        result = rerank(injected, alignments, [entity], lexicon)
        assert result.selected_hypothesis.tokens == ("DEFNOM", "MitarbeiterNEND")
        assert result.agreement_scores == (0, 2, 0)


# mostly a small pool, so lists tie often, -0.0 and 0.0 among them
LOGLIKS = st.one_of(
    st.sampled_from([-0.0, 0.0, -1.0, -1.5, -2.0, -1e-300]),
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
)


class TestNoEntities:
    @given(st.lists(st.tuples(st.lists(st.sampled_from(["a", "b"]), max_size=3), LOGLIKS),
                    min_size=1, max_size=8))
    def test_keeps_the_1_best(self, rows):
        # rerank mode off and sentences without entities rely on this
        nbest = NBestList(0, [Hypothesis(tuple(tokens), loglik) for tokens, loglik in rows])
        alignments = [AlignmentMap({(0, 0)}) for _ in nbest]
        result = rerank(nbest, alignments, [], GERMAN_LEXICON)
        assert result.selected_index == 0
        assert result.selected_hypothesis is nbest[0]


class TestNamedEntityMode:
    def test_known_feminine_selects_second(self):
        nbest, alignments = relative_clause_list()
        result = rerank_named_entity(nbest, alignments, {3}, FEMININE, GERMAN_LEXICON)
        assert result.selected_index == 1

    def test_known_masculine_keeps_first(self):
        nbest, alignments = relative_clause_list()
        result = rerank_named_entity(nbest, alignments, {3}, MASCULINE, GERMAN_LEXICON)
        assert result.selected_index == 0

    def test_empty_coref_degrades_to_loglik(self):
        nbest, alignments = relative_clause_list()
        result = rerank_named_entity(nbest, alignments, set(), FEMININE, GERMAN_LEXICON)
        assert result.selected_index == 0


class TestSpecValidation:
    def test_entity_requires_concrete_gender(self):
        from genderbeam.morpho import NONE

        with pytest.raises(RerankError):
            EntitySpec(None, NONE, frozenset({0}))

    def test_entity_indices_nonempty(self):
        with pytest.raises(RerankError):
            EntitySpec(None, FEMININE, frozenset())

    def test_negative_alignment_rejected(self):
        with pytest.raises(RerankError):
            AlignmentMap([(-1, 0)])
