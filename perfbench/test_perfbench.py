"""The benchmark's own checks: seed invariance, the output gate, the traced
run's consistency, and the command's result line."""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import reference
import workloads
from genderbeam.synth import FEM_RANK_COUNTS, FLOOR_ROW_COUNT

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _inputs(tmp_path, workload, seed):
    directory = tmp_path / f"{workload}-{seed}"
    directory.mkdir()
    workloads.make_inputs(workload, seed, str(directory))
    return (directory, *workloads.load_inputs(directory))


def _traced_eval(tmp_path, seed):
    _, paths, keys = _inputs(tmp_path, "eval-b20", seed)
    tracer = workloads.Tracer()
    result = workloads.eval_traced(paths, tracer)
    assert reference.failed_sentences("eval-b20", reference.load(), keys, result) == set()
    return result


def test_second_seed_keeps_accuracy_and_rank_histogram(tmp_path):
    first, second = _traced_eval(tmp_path, 0), _traced_eval(tmp_path, 7)
    histograms = [Counter(r.first_agreeing.values()) for r in (first, second)]
    assert histograms[0] == histograms[1] == {**FEM_RANK_COUNTS, None: FLOOR_ROW_COUNT}
    assert workloads.accuracy(first) == workloads.accuracy(second) == 0.92
    # the seed permutes which sentence gets which rank
    assert first.first_agreeing != second.first_agreeing


def test_gate_counts_each_changed_sentence(tmp_path):
    directory, paths, keys = _inputs(tmp_path, "rerank-files", 3)
    refs = reference.load()
    result = workloads.reinflect_pass(paths)
    assert reference.failed_sentences("reinflect-b64", refs, keys, result) == set()
    assert workloads.accuracy(result) == 1.0
    result.outputs[5] = result.outputs[5].replace(" ||| -", " ||| -1", 1)
    del result.outputs[9]
    assert reference.failed_sentences("reinflect-b64", refs, keys, result) == {5, 9}

    selected = workloads.rerank_files_pass(paths, directory / "selected.nbest")
    assert reference.failed_sentences("rerank-files", refs, keys, selected) == set()
    lines = selected.output_bytes.splitlines(keepends=True)
    selected.output_bytes = b"".join([lines[1], lines[0], *lines[2:]])
    assert reference.failed_sentences("rerank-files", refs, keys, selected) == set(keys)


def test_traced_reinflect_equals_untraced(tmp_path):
    _, paths, _ = _inputs(tmp_path, "reinflect-b64", 1)
    plain = workloads.reinflect_pass(paths)
    tracer = workloads.Tracer()
    traced = workloads.reinflect_pass(paths, tracer)
    assert traced.outputs == plain.outputs
    assert set(traced.lattice_paths) == set(traced.list_sizes) == {workloads.LATTICE_PATHS}
    assert sum(tracer.self_s.values()) <= traced.setup_s + traced.wall_s
    assert tracer.calls["decode.constrained_beam_search"] == 200
    assert "decode.beam_search" not in tracer.calls


def _run(cwd, *args):
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_result_line_reports_every_declared_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run(ROOT, "--workload", "rerank-files", "--seed", "2", "--seconds", "1",
                    "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 200
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared[group]}


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "eval-b20", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_every_key(workload):
    refs = reference.load()
    # 4 frame classes x (masculine + 16 feminine ranks + floor)
    assert len(refs[workload]) == 4 * (len(FEM_RANK_COUNTS) + 2)
