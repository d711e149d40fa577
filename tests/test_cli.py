"""End-to-end command-line tests, mostly in-process through main()."""

from pathlib import Path

import pytest

from genderbeam.cli import main
from genderbeam.decode import BeamConfig
from genderbeam.evaluation import run_pipeline
from genderbeam.formats import parse_nbest, read_testset
from genderbeam.lattice import compose_lattice, deserialize_lattice
from genderbeam.morpho import build_reinflection_pairs, load_lexicon, read_pairs
from genderbeam.synth import build_benchmark, write_benchmark

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench")
    write_benchmark(build_benchmark(0), directory)
    return directory


def bench_args(bench_dir):
    return [
        "--model", str(bench_dir / "model.lexical.tsv"),
        "--model-kind", "noisy",
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
        assert deserialize_lattice(out.read_text(encoding="utf-8")) == expected


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

    def test_noisy_kind_requires_corpus(self, bench_dir, tmp_path, capsys):
        code = main([
            "decode", "--model", str(bench_dir / "model.lexical.tsv"),
            "--model-kind", "noisy",
            "--src", str(bench_dir / "nouns.txt"), "--beam", "4", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "--corpus is required" in capsys.readouterr().err

    def test_missing_file_is_a_diagnostic_not_a_traceback(self, tmp_path, capsys):
        code = main([
            "decode", "--model", str(tmp_path / "absent.tsv"),
            "--src", str(tmp_path / "absent.txt"), "--beam", "4", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("genderbeam: ")

    @pytest.mark.parametrize("command", ["decode", "two-pass"])
    def test_ids_are_line_numbers(self, bench_dir, tmp_path, capsys, command):
        # a blank line gets no row and shifts no id; plain text has no comments
        first, second = (" ".join(s.source) for s in read_testset(bench_dir / "testset.tsv")[:2])
        extra = [] if command == "decode" else [
            "--pairs", str(bench_dir / "pairs.tsv"), "--lexicon", str(bench_dir / "lexicon.tsv")]

        def decode(text, name):
            src, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.nbest"
            src.write_text(text, encoding="utf-8")
            code = main([command, *bench_args(bench_dir), *extra,
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


class TestRerankCommand:
    def write_two_pass(self, bench_dir, tmp_path, rows):
        testset = read_testset(bench_dir / "testset.tsv")[: len(rows)]
        src = tmp_path / "src.txt"
        src.write_text("".join(" ".join(s.source) + "\n" for s in testset), encoding="utf-8")
        out = tmp_path / "tp.nbest"
        code = main([
            "two-pass", *bench_args(bench_dir),
            "--pairs", str(bench_dir / "pairs.tsv"),
            "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--src", str(src), "--beam", "20", "--max-len", "16", "--out", str(out),
        ])
        assert code == 0
        return testset, out

    def test_pipeline_composability(self, bench_dir, tmp_path):
        # two-pass piped through rerank equals the in-process pipeline result
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


class TestEvalCommand:
    def eval_args(self, bench_dir, report, constrain="on", rerank="oracle"):
        return [
            "eval", "--testset", str(bench_dir / "testset.tsv"),
            *bench_args(bench_dir),
            "--pairs", str(bench_dir / "pairs.tsv"),
            "--lexicon", str(bench_dir / "lexicon.tsv"),
            "--constrain", constrain, "--rerank", rerank,
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

    def test_inferred_requires_tables(self, bench_dir, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main(self.eval_args(bench_dir, report, rerank="inferred"))
        assert code == 1
        assert "--pronouns and --nouns are required" in capsys.readouterr().err

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
        assert main(helper.eval_args(bench_dir, first, rerank="off", constrain="off")) == 0
        assert main(helper.eval_args(bench_dir, second, rerank="off", constrain="off")) == 0
        assert first.read_bytes() == second.read_bytes()
