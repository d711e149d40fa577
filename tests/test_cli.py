"""End-to-end command-line tests, mostly in-process through main()."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import genderbeam.cli
from genderbeam.cli import main
from genderbeam.decode import BeamConfig, NoisyChannelToy, ScoringModel, two_pass_decode
from genderbeam.evaluation import run_pipeline
from genderbeam.formats import parse_alignments, parse_nbest, read_entities, read_testset, write_nbest
from genderbeam.lattice import compose_lattice, serialize_lattice
from genderbeam.morpho import build_reinflection_pairs, load_lexicon, read_pairs, read_patterns
from genderbeam.rerank import AlignmentMap
from genderbeam.synth import build_benchmark, write_benchmark

from helpers import reference_rerank, traced_peak

DATA = Path(__file__).parent / "data"
# two gendered pairs of the benchmark lexicon, and a word it does not list
RUN_WORDS = ("elo", "ela", "juno", "juna", "kaj")


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench")
    write_benchmark(build_benchmark(0), directory)
    return directory


def bench_args(bench_dir):
    return [
        "--model", str(bench_dir / "model.lexical.tsv"),
        "--corpus", str(bench_dir / "corpus.txt"),
    ]


class TestPairsAndLattice:
    def test_pairs_output_parses_back(self, bench_dir, tmp_path, capsys):
        out = tmp_path / "pairs.tsv"
        assert main(["pairs", "--lexicon", str(bench_dir / "lexicon.tsv"), "--out", str(out)]) == 0
        assert "48 reinflection pairs" in capsys.readouterr().out
        expected = build_reinflection_pairs(load_lexicon(bench_dir / "lexicon.tsv"))
        assert read_pairs(out) == expected

    def test_lattice_file_matches_composition(self, bench_dir, tmp_path):
        out = tmp_path / "lat.txt"
        code = main([
            "lattice", "--pairs", str(bench_dir / "pairs.tsv"),
            "--hyp", "pentristo pentras muro",
            "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--out", str(out),
        ])
        assert code == 0
        lexicon = load_lexicon(bench_dir / "lexicon.tsv")
        pairs = read_pairs(bench_dir / "pairs.tsv")
        expected = compose_lattice(pairs, ("pentristo", "pentras", "muro"), lexicon=lexicon)
        assert out.read_text(encoding="utf-8") == serialize_lattice(expected)

    def test_hypothesis_is_read_as_nfc(self, tmp_path, capsys):
        # the pair file holds the composed médico, as every file is read
        pairs, out = tmp_path / "pairs.tsv", tmp_path / "lat.txt"
        pairs.write_text("médico\tmédica\tfeminine\nmédica\tmédico\tmasculine\n", encoding="utf-8")
        hyp = unicodedata.normalize("NFD", "el médico")
        assert main(["lattice", "--pairs", str(pairs), "--hyp", hyp, "--out", str(out)]) == 0
        assert "wrote lattice with 2 paths" in capsys.readouterr().out
        expected = compose_lattice(read_pairs(pairs), ("el", "médico"))
        assert out.read_text(encoding="utf-8") == serialize_lattice(expected)


class TestDecodeCommands:
    def test_decode_writes_sorted_lists(self, bench_dir, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text("worker000 paints walls because she was tall but young and deft\n", encoding="utf-8")
        out = tmp_path / "dec.nbest"
        code = main([
            "decode", *bench_args(bench_dir),
            "--src", str(src), "--beam", "4", "--max-len", "16", "--out", str(out),
        ])
        assert code == 0
        lists = parse_nbest(out)
        assert list(lists) == [0]
        assert len(lists[0]) == 4
        assert lists[0][0].tokens[0] == "pentristo"

    def test_corpus_makes_the_model_a_lexical_table(self, bench_dir, tmp_path, capsys):
        # a score table given with --corpus is read as a lexical table, not decoded with
        table, src = tmp_path / "table.txt", tmp_path / "src.txt"
        table.write_text("ok ||| <s> ||| ok ||| -0.1\nok ||| ok ||| </s> ||| -0.1\n", encoding="utf-8")
        src.write_text("ok\n", encoding="utf-8")
        code = main(["decode", "--model", str(table), "--corpus", str(bench_dir / "corpus.txt"),
                     "--src", str(src), "--beam", "2", "--out", str(tmp_path / "out.nbest")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"genderbeam: {table}:1: expected 3 tab-separated fields, got 1\n")

    def test_missing_file_is_a_diagnostic_not_a_traceback(self, tmp_path, capsys):
        code = main([
            "decode", "--model", str(tmp_path / "absent.tsv"),
            "--src", str(tmp_path / "absent.txt"), "--beam", "4", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("genderbeam: ")

    @pytest.mark.parametrize("command", [
        ["decode", "--src", "absent.txt", "--out", "x"],
        ["eval", "--testset", "absent.tsv", "--lexicon", "absent.tsv", "--rerank", "off", "--report", "x"],
    ], ids=["decode", "eval"])
    def test_bad_width_is_named_before_any_file_is_read(self, tmp_path, capsys, command):
        code = main([*command, "--model", str(tmp_path / "absent.tsv"), "--beam", "0"])
        assert code == 1
        assert capsys.readouterr().err == "genderbeam: beam_width must be >= 1, got 0\n"

    @pytest.mark.parametrize("two_pass", [False, True], ids=["decode", "two-pass"])
    def test_ids_are_line_numbers(self, bench_dir, tmp_path, capsys, two_pass):
        # a blank line gets no row and shifts no id; plain text has no comments
        first, second = (" ".join(s.source) for s in read_testset(bench_dir / "testset.tsv")[:2])
        extra = ["--pairs", str(bench_dir / "pairs.tsv")] if two_pass else []

        def decode(text, name):
            src, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.nbest"
            src.write_text(text, encoding="utf-8")
            code = main(["decode", *bench_args(bench_dir), *extra,
                         "--src", str(src), "--beam", "4", "--max-len", "16", "--out", str(out)])
            assert code == 0
            return parse_nbest(out), capsys.readouterr().out

        lists, summary = decode(f"{first}\n\n# {second}\n", "mixed")
        assert sorted(lists) == [0, 2]
        assert "decoded 2 sentences" in summary and "skipped 1 blank lines" in summary
        alone, _ = decode(f"# {second}\n", "alone")
        assert lists[2].hypotheses == alone[0].hypotheses
        alone, _ = decode(f"{first}\n", "first")
        assert lists[0].hypotheses == alone[0].hypotheses

    @pytest.mark.parametrize("two_pass", [False, True], ids=["decode", "two-pass"])
    def test_nbest_one_is_the_first_line_of_the_full_list(self, bench_dir, tmp_path, two_pass):
        # a search asked for one hypothesis stops expanding items that cannot
        # become it, and still returns the full list's first
        src = tmp_path / "src.txt"
        src.write_text("".join(" ".join(s.source) + "\n" for s in read_testset(bench_dir / "testset.tsv")[:20]),
                       encoding="utf-8")
        extra = ["--pairs", str(bench_dir / "pairs.tsv")] if two_pass else []
        lines = {}
        for nbest in ("1", "20"):
            out = tmp_path / f"{nbest}.nbest"
            assert main(["decode", *bench_args(bench_dir), *extra, "--src", str(src), "--beam", "20",
                         "--nbest", nbest, "--max-len", "16", "--out", str(out)]) == 0
            lines[nbest] = out.read_text(encoding="utf-8").splitlines()
        firsts = {}
        for line in lines["20"]:
            firsts.setdefault(line.split(" ||| ")[0], line)
        assert len(lines["1"]) == 20
        assert lines["1"] == list(firsts.values())

    def test_empty_first_best_names_the_sentence(self, bench_dir, tmp_path, capsys):
        # at "empty" the BOS step prefers EOS, so the first-pass 1-best is empty
        model, src = tmp_path / "model.txt", tmp_path / "src.txt"
        model.write_text(
            "ok ||| <s> ||| ok ||| -0.1\nok ||| ok ||| </s> ||| -0.1\n"
            "empty ||| <s> ||| </s> ||| -0.1\nempty ||| <s> ||| ok ||| -1.0\n",
            encoding="utf-8",
        )
        src.write_text("ok\nempty\n", encoding="utf-8")
        code = main(["decode", "--model", str(model), "--pairs", str(bench_dir / "pairs.tsv"),
                     "--src", str(src), "--beam", "2", "--out", str(tmp_path / "out.nbest")])
        assert code == 1
        assert capsys.readouterr().err == "genderbeam: source 1: first-pass 1-best is empty\n"

    def test_patterns_need_pairs(self, bench_dir, tmp_path, capsys):
        # a pattern's label is read only by the pair set of two-pass decoding
        patterns, pairs, src = tmp_path / "patterns.tsv", tmp_path / "pairs.tsv", tmp_path / "src.txt"
        patterns.write_text("suffix\t-x\tneutral-new\n", encoding="utf-8")
        pairs.write_text("pentristo\tpentrix\tneutral-new\npentrix\tpentristo\tmasculine\n",
                         encoding="utf-8")
        src.write_text("worker000 paints walls because she was tall but young and deft\n", encoding="utf-8")
        args = ["decode", *bench_args(bench_dir), "--src", str(src), "--beam", "2", "--max-len", "16",
                "--patterns", str(patterns), "--out", str(tmp_path / "out.nbest")]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "genderbeam: --patterns needs --pairs: decoding without a pair set reads no gender tag\n")
        assert not (tmp_path / "out.nbest").exists()
        assert main([*args, "--pairs", str(pairs)]) == 0
        words = {token for hyp in parse_nbest(tmp_path / "out.nbest")[0] for token in hyp.tokens}
        assert {"pentristo", "pentrix"} <= words


class TestRerankCommand:
    def write_two_pass(self, bench_dir, tmp_path, rows):
        testset = read_testset(bench_dir / "testset.tsv")[: len(rows)]
        src = tmp_path / "src.txt"
        src.write_text("".join(" ".join(s.source) + "\n" for s in testset), encoding="utf-8")
        out = tmp_path / "tp.nbest"
        code = main([
            "decode", *bench_args(bench_dir),
            "--pairs", str(bench_dir / "pairs.tsv"),
            "--src", str(src), "--beam", "20", "--max-len", "16", "--out", str(out),
        ])
        assert code == 0
        return testset, out

    def test_pipeline_composability(self, bench_dir, tmp_path):
        # two-pass decoding piped through rerank equals the in-process pipeline result
        testset, tp = self.write_two_pass(bench_dir, tmp_path, range(12))
        diagonal = " ".join(f"{i}-{i}" for i in range(11))
        align = tmp_path / "align.txt"
        align.write_text(
            "".join(f"{s.sent_id}\t{rank}\t{diagonal}\n" for s in testset for rank in range(20)),
            encoding="utf-8",
        )
        entities = tmp_path / "entities.tsv"
        entities.write_text(
            "".join(f"{s.sent_id}\t{s.gold_gender}\t{s.trigger_index}\t0\n" for s in testset),
            encoding="utf-8",
        )
        out = tmp_path / "sel.nbest"
        code = main([
            "rerank", "--nbest", str(tp), "--align", str(align),
            "--entities", str(entities), "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--out", str(out),
        ])
        assert code == 0
        selected = parse_nbest(out)

        bench = build_benchmark(0)
        outcomes = run_pipeline(
            testset, bench.model, bench.pairs, bench.lexicon,
            constrain=True, rerank_mode="oracle", cfg=BeamConfig(20, 20, 16),
        )
        assert list(selected) == [o.record.sent_id for o in outcomes]
        for outcome in outcomes:
            chosen = selected[outcome.record.sent_id][0]
            expected = outcome.nbest[outcome.selected_index]
            assert chosen.tokens == expected.tokens
            assert chosen.loglik == expected.loglik

    def test_empty_entity_file_keeps_the_1_best(self, bench_dir, tmp_path):
        testset, tp = self.write_two_pass(bench_dir, tmp_path, range(3))
        align = tmp_path / "align.txt"
        align.write_text("", encoding="utf-8")
        entities = tmp_path / "entities.tsv"
        entities.write_text("# none\n", encoding="utf-8")
        out = tmp_path / "sel.nbest"
        code = main([
            "rerank", "--nbest", str(tp), "--align", str(align),
            "--entities", str(entities), "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--out", str(out),
        ])
        assert code == 0
        selected = parse_nbest(out)
        originals = parse_nbest(tp)
        for sent_id, nbest in selected.items():
            assert len(nbest) == 1
            assert nbest[0] == originals[sent_id][0]

    def test_entities_without_a_list_are_counted(self, bench_dir, tmp_path, capsys):
        nbest = tmp_path / "tp.nbest"
        nbest.write_text("0 ||| a b ||| -1.0\n0 ||| c d ||| -2.0\n", encoding="utf-8")
        align = tmp_path / "align.txt"
        align.write_text("0\t0\t0-0\n0\t1\t0-0\n", encoding="utf-8")
        entities = tmp_path / "entities.tsv"
        entities.write_text("0\tfeminine\t-\t0\n5\tmasculine\t-\t0\n5\tfeminine\t-\t1\n",
                            encoding="utf-8")
        out = tmp_path / "sel.nbest"
        code = main([
            "rerank", "--nbest", str(nbest), "--align", str(align),
            "--entities", str(entities), "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out == (
            f"selected 1 hypothesis for each of 1 sentences to {out}, "
            "skipped entities for 1 sentences with no n-best list\n")
        assert list(parse_nbest(out)) == [0]

    def test_missing_alignment_is_an_error(self, bench_dir, tmp_path, capsys):
        testset, tp = self.write_two_pass(bench_dir, tmp_path, range(3))
        align = tmp_path / "align.txt"
        align.write_text(
            "".join(f"{s.sent_id}\t{rank}\t0-0\n" for s in testset for rank in range(20)
                    if (s.sent_id, rank) != (testset[1].sent_id, 5)),
            encoding="utf-8",
        )
        entities = tmp_path / "entities.tsv"
        entities.write_text(
            "".join(f"{s.sent_id}\t{s.gold_gender}\t-\t0\n" for s in testset), encoding="utf-8"
        )
        code = main([
            "rerank", "--nbest", str(tp), "--align", str(align),
            "--entities", str(entities), "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--out", str(tmp_path / "sel.nbest"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"genderbeam: {align}: ")
        assert f"sent_id {testset[1].sent_id} rank 5" in err

    def test_entity_tags_are_checked_against_patterns_labels(self, bench_dir, tmp_path, capsys):
        nbest = tmp_path / "tp.nbest"
        nbest.write_text("0 ||| a b ||| -1.0\n1 ||| c d ||| -1.0\n", encoding="utf-8")
        align = tmp_path / "align.txt"
        align.write_text("0\t0\t0-0\n1\t0\t0-0\n", encoding="utf-8")
        entities = tmp_path / "entities.tsv"
        entities.write_text("0\tfeminine\t-\t0\n1\tfemenine\t-\t0\n", encoding="utf-8")
        args = ["rerank", "--nbest", str(nbest), "--align", str(align),
                "--entities", str(entities), "--lexicon", str(bench_dir / "lexicon.tsv"),
                "--out", str(tmp_path / "sel.nbest")]
        assert main(args) == 1
        assert capsys.readouterr().err == f"genderbeam: {entities}:2: unknown gender tag 'femenine'\n"
        patterns = tmp_path / "patterns.tsv"
        patterns.write_text("suffix\t-x\tfemenine\n", encoding="utf-8")
        assert main([*args, "--patterns", str(patterns)]) == 0

    def test_link_past_the_hypothesis_is_an_error(self, bench_dir, tmp_path, capsys):
        testset, tp = self.write_two_pass(bench_dir, tmp_path, range(3))
        lists = parse_nbest(tp)
        sent_id = testset[1].sent_id
        length = len(lists[sent_id][5].tokens)
        far = {(sent_id, 5): f"0-0 2-{length + 3} 1-{length}",
               # no entities for testset[2], so its alignments are not read
               (testset[2].sent_id, 0): "0-0 0-99"}
        align = tmp_path / "align.txt"
        align.write_text(
            "".join(f"{s.sent_id}\t{rank}\t{far.get((s.sent_id, rank), '0-0')}\n"
                    for s in testset for rank in range(20)),
            encoding="utf-8",
        )
        entities = tmp_path / "entities.tsv"
        entities.write_text(
            "".join(f"{s.sent_id}\t{s.gold_gender}\t-\t0\n" for s in testset[:2]), encoding="utf-8"
        )
        code = main([
            "rerank", "--nbest", str(tp), "--align", str(align),
            "--entities", str(entities), "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--out", str(tmp_path / "sel.nbest"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"genderbeam: {align}: sent_id {sent_id} rank 5: link 1-{length} is past "
            f"the hypothesis of {length} tokens\n")

    @given(lines=st.lists(st.tuples(st.integers(0, 3),
                                    st.lists(st.sampled_from(RUN_WORDS), min_size=1, max_size=3),
                                    st.sampled_from((-1.0, -2.0, -3.0))), min_size=1, max_size=12),
           entities=st.dictionaries(st.integers(0, 4), st.lists(st.tuples(
               st.sampled_from(("feminine", "masculine")), st.sets(st.integers(0, 2), min_size=1)),
               min_size=1, max_size=2), max_size=4))
    def test_split_runs_select_as_whole_lists(self, bench_dir, scratch, lines, entities):
        # an id's lines may be split into runs between other ids' lines; its
        # logliks are sorted in file order, so each id stays best first, with ties
        ordered = {sent_id: iter(sorted((loglik for i, _, loglik in lines if i == sent_id), reverse=True))
                   for sent_id in {i for i, _, _ in lines}}
        rows = [(sent_id, tokens, next(ordered[sent_id])) for sent_id, tokens, _ in lines]
        ranks = Counter()
        nbest, align = scratch / "runs.nbest", scratch / "runs.align"
        nbest.write_text("".join(f"{i} ||| {' '.join(tokens)} ||| {loglik!r}\n" for i, tokens, loglik in rows),
                         encoding="utf-8")
        align_lines = []
        for i, tokens, _ in rows:
            align_lines.append(f"{i}\t{ranks[i]}\t{' '.join(f'{k}-{k}' for k in range(len(tokens)))}\n")
            ranks[i] += 1
        align.write_text("".join(align_lines), encoding="utf-8")
        ents = scratch / "runs.tsv"
        ents.write_text("".join(f"{i}\t{gender}\t-\t{','.join(map(str, sorted(indices)))}\n"
                                for i, specs in entities.items() for gender, indices in specs),
                        encoding="utf-8")
        out = scratch / "runs.sel"
        out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(["rerank", "--nbest", str(nbest), "--align", str(align), "--entities", str(ents),
                         "--lexicon", str(bench_dir / "lexicon.tsv"), "--out", str(out)]) == 0

        lexicon = load_lexicon(bench_dir / "lexicon.tsv")
        lists, specs = parse_nbest(nbest), read_entities(ents)
        expected = {}
        for sent_id, hyps in lists.items():
            diagonal = [AlignmentMap((k, k) for k in range(len(hyp.tokens))) for hyp in hyps]
            selected, _ = reference_rerank(hyps, diagonal, specs.get(sent_id, []), lexicon)
            expected[sent_id] = (hyps[selected],)
        assert {i: chosen.hypotheses for i, chosen in parse_nbest(out).items()} == expected
        assert stdout.getvalue() == (
            f"selected 1 hypothesis for each of {len(lists)} sentences to {out}, "
            f"skipped entities for {len(specs.keys() - lists.keys())} sentences with no n-best list\n")

    def test_holds_the_alignment_map_and_one_list(self, bench_dir, variant_files, tmp_path):
        # the n-best file is reranked one run at a time, so the command's peak
        # stays near the alignment reader's own; on CPython 3.11 holding every
        # list measured 4.23 MiB here against parse_alignments' 1.35 MiB
        directory, lines = variant_files
        entities = tmp_path / "entities.tsv"
        entities.write_text("".join(f"{sent_id}\tfeminine\t-\t1\n" for sent_id in range(lines // 64)),
                            encoding="utf-8")
        args = ["rerank", "--nbest", str(directory / "variants.nbest"), "--align", str(directory / "variants.align"),
                "--entities", str(entities), "--lexicon", str(bench_dir / "lexicon.tsv"), "--out"]
        with contextlib.redirect_stdout(io.StringIO()):
            peak = traced_peak(lambda out: main([*args, str(out)]) == 0, tmp_path / "sel.nbest")
        assert peak < traced_peak(parse_alignments, directory / "variants.align") + 2**19

    def test_bad_last_line_writes_nothing(self, bench_dir, tmp_path, capsys):
        # the lists before the bad line are reranked, but the output is written
        # only after the last one
        nbest = tmp_path / "tp.nbest"
        nbest.write_text("0 ||| ela ||| -1.0\n1 ||| elo ||| -1.0\n1 ||| ela ||| -1,5\n", encoding="utf-8")
        align = tmp_path / "align.txt"
        align.write_text("0\t0\t0-0\n1\t0\t0-0\n1\t1\t0-0\n", encoding="utf-8")
        entities = tmp_path / "entities.tsv"
        entities.write_text("0\tfeminine\t-\t0\n1\tfeminine\t-\t0\n", encoding="utf-8")
        out = tmp_path / "sel.nbest"
        assert main(["rerank", "--nbest", str(nbest), "--align", str(align), "--entities", str(entities),
                     "--lexicon", str(bench_dir / "lexicon.tsv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"genderbeam: {nbest}:3: loglik must be a number, got '-1,5'\n"
        assert not out.exists()

    def test_out_may_name_the_nbest_file(self, bench_dir, tmp_path):
        # the n-best file is read to its end before the output is opened
        testset, tp = self.write_two_pass(bench_dir, tmp_path, range(3))
        align = tmp_path / "align.txt"
        align.write_text("".join(f"{s.sent_id}\t{rank}\t0-0 1-1\n" for s in testset for rank in range(20)),
                         encoding="utf-8")
        entities = tmp_path / "entities.tsv"
        entities.write_text("".join(f"{s.sent_id}\t{s.gold_gender}\t-\t0,1\n" for s in testset),
                            encoding="utf-8")
        args = ["rerank", "--align", str(align), "--entities", str(entities),
                "--lexicon", str(bench_dir / "lexicon.tsv")]
        elsewhere = tmp_path / "sel.nbest"
        assert main([*args, "--nbest", str(tp), "--out", str(elsewhere)]) == 0
        assert main([*args, "--nbest", str(tp), "--out", str(tp)]) == 0
        assert tp.read_bytes() == elsewhere.read_bytes()


class TestEvalCommand:
    def eval_args(self, bench_dir, report, two_pass=True, rerank="oracle"):
        return [
            "eval", "--testset", str(bench_dir / "testset.tsv"),
            *bench_args(bench_dir),
            *(["--pairs", str(bench_dir / "pairs.tsv")] if two_pass else []),
            "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--rerank", rerank,
            "--beam", "20", "--max-len", "16",
            "--report", str(report),
        ]

    def test_matches_committed_golden(self, bench_dir, tmp_path, capsys):
        report = tmp_path / "report.csv"
        assert main(self.eval_args(bench_dir, report)) == 0
        golden = (DATA / "golden_eval_constrain_oracle.csv").read_bytes()
        assert report.read_bytes() == golden
        out = capsys.readouterr().out
        assert "sentences: 200" in out
        assert "accuracy: 0.92" in out

    def test_patterns_read_once(self, bench_dir, tmp_path, monkeypatch):
        patterns = tmp_path / "patterns.tsv"
        patterns.write_text("suffix\t-x\tneutral-new\n", encoding="utf-8")
        calls = []

        def counting(path):
            calls.append(path)
            return read_patterns(path)

        monkeypatch.setattr(genderbeam.cli, "read_patterns", counting)
        args = self.eval_args(bench_dir, tmp_path / "report.csv", two_pass=False, rerank="off")
        args[args.index("--beam") + 1] = "1"
        assert main([*args, "--patterns", str(patterns)]) == 0
        assert calls == [str(patterns)]

    def test_tags_are_checked_against_patterns_labels(self, bench_dir, tmp_path, capsys):
        # a misspelt gold tag would otherwise be reported as gold_feminin
        rows = (bench_dir / "testset.tsv").read_text(encoding="utf-8").splitlines()[:3]
        rows[1] = rows[1].replace("\tfeminine\t", "\tfeminin\t")
        testset = tmp_path / "testset.tsv"
        testset.write_text("\n".join(rows) + "\n", encoding="utf-8")
        pronouns = tmp_path / "pronouns.tsv"
        pronouns.write_text((bench_dir / "pronouns.tsv").read_text(encoding="utf-8") + "ze\tfeminin\n",
                            encoding="utf-8")
        report = tmp_path / "report.csv"
        args = self.eval_args(bench_dir, report, rerank="inferred") + [
            "--pronouns", str(pronouns), "--nouns", str(bench_dir / "nouns.txt")]
        args[args.index("--testset") + 1] = str(testset)
        assert main(args) == 1
        assert capsys.readouterr().err == f"genderbeam: {testset}:2: unknown gender tag 'feminin'\n"
        testset.write_text("\n".join([rows[0], rows[2]]) + "\n", encoding="utf-8")
        assert main(args) == 1
        assert capsys.readouterr().err == f"genderbeam: {pronouns}:3: unknown gender tag 'feminin'\n"
        patterns = tmp_path / "patterns.tsv"
        patterns.write_text("suffix\t-x\tfeminin\n", encoding="utf-8")
        testset.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main([*args, "--patterns", str(patterns)]) == 0
        assert "gold_feminin,1" in report.read_text(encoding="utf-8").splitlines()

    def test_reports_a_label_beyond_the_binary(self, tmp_path, capsys):
        # a pattern label was counted under gold_ but never scored, so the
        # report could not say whether it was ever predicted
        files = {
            "patterns.tsv": "suffix\tx\tnb\n",
            "lexicon.tsv": "médico\tmédico\tN\tmasculine\nmédica\tmédico\tN\tfeminine\n"
                           "enfermero\tenfermero\tN\tmasculine\n",
            "pairs.tsv": "médico\tmédica\tfeminine\nmédica\tmédico\tmasculine\n"
                         "médico\tmédicx\tnb\nmédicx\tmédico\tmasculine\n",
            "model.txt": "".join(f"{source} ||| {prefix} ||| {token} ||| {lp}\n" for source, prefix, token, lp in [
                ("the doctor", "<s>", "el", -0.1), ("the doctor", "el", "médico", -0.2),
                ("the doctor", "el", "médica", -1.0), ("the doctor", "el médico", "</s>", -0.1),
                ("the nurse", "<s>", "el", -0.1), ("the nurse", "el", "enfermero", -0.2),
                ("the nurse", "el enfermero", "</s>", -0.1)]),
            # the nurse's list offers no nb form, so row 3 keeps enfermero
            "testset.tsv": "0\tmasculine\tthe doctor\t-\t1\n1\tnb\tthe doctor\t-\t1\n"
                           "2\tfeminine\tthe doctor\t-\t1\n3\tnb\tthe nurse\t-\t1\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        report = tmp_path / "report.csv"
        assert main(["eval", "--testset", str(tmp_path / "testset.tsv"), "--model", str(tmp_path / "model.txt"),
                     "--pairs", str(tmp_path / "pairs.tsv"), "--lexicon", str(tmp_path / "lexicon.tsv"),
                     "--patterns", str(tmp_path / "patterns.tsv"), "--rerank", "oracle", "--beam", "4",
                     "--max-len", "4", "--report", str(report)]) == 0
        # predictions masculine, nb, feminine, masculine: nb has 1 true
        # positive of 1 predicted and 2 gold, so precision 1, recall 1/2
        # and F1 2/3; masculine 1 of 2 predicted and 1 gold, also 2/3
        assert report.read_text(encoding="utf-8").splitlines() == [
            "metric,value", "accuracy,0.75", "f1_masculine,0.666666666667", "f1_feminine,1",
            "delta_g,-0.333333333333", "gold_feminine,1", "gold_masculine,1", "gold_nb,2",
            "f1_nb,0.666666666667", "pred_nb,1"]
        assert capsys.readouterr().out.splitlines()[-2:] == ["f1_nb: 0.666666666667", "pred_nb: 1"]

    def test_inferred_requires_tables(self, bench_dir, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main(self.eval_args(bench_dir, report, rerank="inferred"))
        assert code == 1
        assert "--pronouns and --nouns are required" in capsys.readouterr().err

    @pytest.mark.parametrize("rerank", ["off", "oracle"])
    @pytest.mark.parametrize("flag, name", [("--pronouns", "pronouns.tsv"), ("--nouns", "nouns.txt")])
    def test_tables_are_refused_without_inferred(self, bench_dir, tmp_path, capsys, rerank, flag, name):
        # a table no mode reads would be ignored, so it is an error and no report is written
        report = tmp_path / "report.csv"
        assert main(self.eval_args(bench_dir, report, rerank=rerank) + [flag, str(bench_dir / name)]) == 1
        assert capsys.readouterr().err == (
            f"genderbeam: --pronouns and --nouns are read only with --rerank inferred, not {rerank}\n")
        assert not report.exists()

    def test_inferred_runs_with_tables(self, bench_dir, tmp_path):
        report = tmp_path / "report.csv"
        args = self.eval_args(bench_dir, report, rerank="inferred") + [
            "--pronouns", str(bench_dir / "pronouns.tsv"),
            "--nouns", str(bench_dir / "nouns.txt"),
        ]
        assert main(args) == 0
        assert report.read_text(encoding="utf-8").splitlines()[1] == "accuracy,0.92"


class TestSweepCommand:
    def test_csv_shape_and_values(self, bench_dir, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--testset", str(bench_dir / "testset.tsv"),
            *bench_args(bench_dir),
            "--pairs", str(bench_dir / "pairs.tsv"),
            "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--widths", "4,8", "--max-len", "16", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text(encoding="utf-8") == "beam_width,accuracy\n4,0.7\n8,0.8\n"

    def test_bad_widths_fail_cleanly(self, bench_dir, tmp_path, capsys):
        code = main([
            "sweep", "--testset", str(bench_dir / "testset.tsv"),
            *bench_args(bench_dir),
            "--pairs", str(bench_dir / "pairs.tsv"),
            "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--widths", "8,4", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("genderbeam: ")

    def test_width_that_is_no_integer_is_named_before_any_file_is_read(self, tmp_path, capsys):
        absent = str(tmp_path / "absent")
        code = main([
            "sweep", "--testset", absent, "--model", absent, "--pairs", absent, "--lexicon", absent,
            "--widths", "4,x", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "genderbeam: --widths: invalid literal for int() with base 10: 'x'\n")

    @pytest.mark.parametrize("widths, blank", [("4,,8", ""), ("4,8,", ""), ("4, ,8", " ")],
                             ids=["inner", "trailing", "spaces"])
    def test_blank_width_field_is_named_before_any_file_is_read(self, tmp_path, capsys, widths, blank):
        absent = str(tmp_path / "absent")
        code = main([
            "sweep", "--testset", absent, "--model", absent, "--pairs", absent, "--lexicon", absent,
            "--widths", widths, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"genderbeam: --widths: invalid literal for int() with base 10: {blank!r}\n")

    @pytest.mark.parametrize("settings, message", [
        (["--widths", "8,4"], "widths must be strictly ascending, got [8, 4]"),
        (["--widths", "0"], "beam_width must be >= 1, got 0"),
        (["--widths", "4", "--max-len", "0"], "max_len must be >= 1, got 0"),
    ], ids=["descending", "zero-width", "zero-max-len"])
    def test_bad_setting_is_named_before_any_file_is_read(self, tmp_path, capsys, settings, message):
        absent = str(tmp_path / "absent")
        code = main([
            "sweep", "--testset", absent, "--model", absent, "--pairs", absent, "--lexicon", absent,
            *settings, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"genderbeam: {message}\n"

    def test_gold_tags_are_checked(self, bench_dir, tmp_path, capsys):
        testset = tmp_path / "testset.tsv"
        testset.write_text("0\tfeminin\tx\t-\t0\n", encoding="utf-8")
        code = main([
            "sweep", "--testset", str(testset),
            *bench_args(bench_dir),
            "--pairs", str(bench_dir / "pairs.tsv"),
            "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--widths", "4", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"genderbeam: {testset}:1: unknown gender tag 'feminin'\n"


class TestSynthCommand:
    def test_determinism_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert main(["synth", "--out-dir", str(tmp_path / name), "--seed", "3"]) == 0
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_eval_report_is_deterministic(self, bench_dir, tmp_path):
        helper = TestEvalCommand()
        first, second = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(helper.eval_args(bench_dir, first, rerank="off", two_pass=False)) == 0
        assert main(helper.eval_args(bench_dir, second, rerank="off", two_pass=False)) == 0
        assert first.read_bytes() == second.read_bytes()


class TestGoldenOutputs:
    """The seed-0 outputs of every command that builds pairs or a lattice,
    decodes, reranks or scores, checked byte for byte against committed
    SHA-256 digests. The lattice is that of sentence 0's first-pass 1-best."""

    DIGESTS = DATA / "golden_seed0_sha256.txt"

    def outputs(self, bench_dir, tmp_path, capsys) -> dict[str, bytes]:
        testset = read_testset(bench_dir / "testset.tsv")
        outputs = {}

        def run(name, args, out):
            capsys.readouterr()
            assert main(args) == 0
            outputs[f"{name}.out"] = Path(out).read_bytes()
            outputs[f"{name}.stdout"] = capsys.readouterr().out.replace(str(out), "OUT").encode()

        pairs = tmp_path / "pairs.tsv"
        run("pairs", ["pairs", "--lexicon", str(bench_dir / "lexicon.tsv"), "--out", str(pairs)], pairs)
        lattice = tmp_path / "lattice.txt"
        run("lattice", ["lattice", "--pairs", str(bench_dir / "pairs.tsv"),
                        "--hyp", "pentristo pentras muro cxar elo estis alto sed juno kaj lerto",
                        "--lexicon", str(bench_dir / "lexicon.tsv"), "--out", str(lattice)], lattice)
        # the digest names: off/on is whether --pairs is given, then the rerank mode
        evals = {"eval_off_off": (False, "off", []), "eval_on_oracle": (True, "oracle", []),
                 "eval_on_inferred": (True, "inferred", [
                     "--pronouns", str(bench_dir / "pronouns.tsv"),
                     "--nouns", str(bench_dir / "nouns.txt")])}
        for name, (two_pass, rerank, extra) in evals.items():
            report = tmp_path / f"{name}.csv"
            run(name, TestEvalCommand().eval_args(bench_dir, report, two_pass, rerank) + extra,
                report)
        sweep = tmp_path / "sweep.csv"
        run("sweep", ["sweep", "--testset", str(bench_dir / "testset.tsv"), *bench_args(bench_dir),
                      "--pairs", str(bench_dir / "pairs.tsv"),
                      "--lexicon", str(bench_dir / "lexicon.tsv"),
                      "--widths", "4,8,12,16,20", "--max-len", "16", "--out", str(sweep)], sweep)
        src = tmp_path / "src.txt"
        src.write_text("".join(" ".join(s.source) + "\n" for s in testset), encoding="utf-8")
        decoded = tmp_path / "decode.nbest"
        run("decode", ["decode", *bench_args(bench_dir),
                       "--src", str(src), "--beam", "20", "--max-len", "16", "--out", str(decoded)],
            decoded)
        nbest = tmp_path / "two_pass.nbest"
        run("two_pass", ["decode", *bench_args(bench_dir),
                         "--pairs", str(bench_dir / "pairs.tsv"),
                         "--src", str(src), "--beam", "20", "--max-len", "16", "--out", str(nbest)],
            nbest)
        # diagonal alignments and oracle entities, as test_pipeline_composability builds them
        diagonal = " ".join(f"{i}-{i}" for i in range(11))
        align = tmp_path / "align.txt"
        align.write_text("".join(f"{s.sent_id}\t{rank}\t{diagonal}\n"
                                 for s in testset for rank in range(20)), encoding="utf-8")
        entities = tmp_path / "entities.tsv"
        entities.write_text("".join(f"{s.sent_id}\t{s.gold_gender}\t{s.trigger_index}\t0\n"
                                    for s in testset), encoding="utf-8")
        selected = tmp_path / "rerank.nbest"
        run("rerank", ["rerank", "--nbest", str(nbest), "--align", str(align),
                       "--entities", str(entities), "--lexicon", str(bench_dir / "lexicon.tsv"),
                       "--out", str(selected)], selected)
        return outputs

    def test_seed0_outputs_match_committed_digests(self, bench_dir, tmp_path, capsys):
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in self.outputs(bench_dir, tmp_path, capsys).items()}
        assert digests == self.committed()

    def committed(self) -> dict[str, str]:
        return dict(line.split()[::-1] for line in self.DIGESTS.read_text(encoding="utf-8").splitlines())

    def test_two_pass_asks_fewer_steps_for_the_same_lists(self, bench_dir, tmp_path):
        # the 200 sentences as `decode --pairs --beam 20 --max-len 16` runs
        # them: the lists keep two_pass.out's bytes, and the first pass, run
        # for its 1-best, asks for fewer steps (63,097 in all when it ran to a
        # full list)
        model = NoisyChannelToy.from_files(bench_dir / "model.lexical.tsv", bench_dir / "corpus.txt")
        calls = 0

        class Counted(ScoringModel):
            floor = model.floor

            def next_scores(self, source, prefix):
                nonlocal calls
                calls += 1
                return model.next_scores(source, prefix)

        pairs, cfg = read_pairs(bench_dir / "pairs.tsv"), BeamConfig(20, 20, 16)
        lists = [two_pass_decode(Counted(), sentence.source, pairs, cfg, cfg, source_id=sent_id)
                 for sent_id, sentence in enumerate(read_testset(bench_dir / "testset.tsv"))]
        assert calls == 54640
        write_nbest(lists, tmp_path / "two_pass.nbest")
        digest = hashlib.sha256((tmp_path / "two_pass.nbest").read_bytes()).hexdigest()
        assert digest == self.committed()["two_pass.out"]

    def test_digests_hold_under_another_hash_seed(self, tmp_path):
        # set and frozenset orders move with PYTHONHASHSEED, so the commands
        # run again in a child process under another seed
        test = f"{Path(__file__).resolve()}::TestGoldenOutputs::test_seed0_outputs_match_committed_digests"
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--basetemp", str(tmp_path), test],
            capture_output=True, text=True, cwd=Path(__file__).resolve().parent.parent, timeout=600,
            env={**os.environ, "PYTHONHASHSEED": "7"})
        assert child.returncode == 0, child.stdout + child.stderr
        assert "1 passed" in child.stdout
