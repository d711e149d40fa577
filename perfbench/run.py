"""Benchmark entry point: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload eval-b20 --seed 0 --seconds 20 --trace 0

Run from the repository root. The benchmark imports the package from this
checkout's `src/` and nowhere else, writes its inputs under `.perfbench/`,
and removes them when it ends. Load is a closed loop: one process, one
thread, one client, sentences in file order. With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
passes and prints the per-layer metrics. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
See NOTES.md for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUT_TIMEOUT_S = 170
CONTENDED_QUANTILE = 0.85

if not (SRC / "genderbeam" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package source at {SRC / 'genderbeam'}; run from a full checkout")
sys.path.insert(0, str(SRC))

import reference  # noqa: E402
import workloads  # noqa: E402
from genderbeam.synth import FEM_RANK_COUNTS, FLOOR_ROW_COUNT  # noqa: E402

# metric name -> unit, as declared in BENCHMARK.json; the run reports exactly these
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


def _make_inputs(workload: str, seed: int, directory: Path) -> None:
    """Generate inputs in a child process, so its memory stays out of peak_rss_mb."""
    code = "import sys, workloads; workloads.make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(BENCH), str(SRC)])}
    try:
        subprocess.run([sys.executable, "-c", code, workload, str(seed), str(directory)],
                       env=env, check=True, timeout=INPUT_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"perfbench: input generation failed: {exc}")


def _one_pass(workload: str, paths, directory: Path):
    if workload == "eval-b20":
        return workloads.eval_pass(paths)
    if workload == "reinflect-b64":
        return workloads.reinflect_pass(paths)
    return workloads.rerank_files_pass(paths, directory / "selected.nbest")


def _traced_pass(workload: str, paths, directory: Path, tracer):
    if workload == "eval-b20":
        return workloads.eval_traced(paths, tracer)
    if workload == "reinflect-b64":
        return workloads.reinflect_pass(paths, tracer)
    return workloads.rerank_files_traced(paths, directory / "traced.nbest", tracer)


def _total_s(workload: str, result) -> float:
    """Set-up plus timed phase; rerank-files loads its inputs inside the command."""
    return result.wall_s if workload == "rerank-files" else result.setup_s + result.wall_s


def _quantile(values, q: float) -> float:
    """The q quantile (0 to 1) of values, interpolated linearly between ranks."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _contended(times) -> float:
    """A time taken over the run's passes at the host's contended level.

    The host is shared. Its speed switches, in spells of seconds, between a
    quiet level and a contended one up to twice as slow, and the share of
    passes that are contended ranges from a few to all of them from one run
    to the next. A median over passes lands on whichever level the run
    happened to catch. The CONTENDED_QUANTILE over passes stays at the
    contended level unless nearly every pass was quiet, and leaves out the
    rarer bursts that are slower still.
    """
    return _quantile(times, CONTENDED_QUANTILE)


class Run:
    """Passes over one workload until its time is spent, checked against the reference."""

    def __init__(self, workload: str, seconds: int, directory: Path) -> None:
        self.workload = workload
        self.seconds = seconds
        self.directory = directory
        self.paths, self.keys = workloads.load_inputs(directory)
        self.refs = reference.load()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result) -> None:
        failed = reference.failed_sentences(self.workload, self.refs, self.keys, result)
        self.attempted += len(self.keys)
        self.failed += len(failed)
        if failed:
            self.problems.append(f"{len(failed)} sentences differ from the reference, "
                                 f"first {sorted(failed)[:5]}")
        self.problems.extend(result.errors[:1])

    def loop(self, step) -> None:
        """Call step() until the next call would overrun the run's seconds."""
        start = time.perf_counter()
        longest = 0.0
        while True:
            gc.collect()  # every pass starts from the same heap, like a fresh invocation
            t0 = time.perf_counter()
            step()
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - start + longest > self.seconds:
                break

    def end_to_end(self) -> dict[str, float]:
        setup, passes, accuracy = [], [], []

        def step():
            result = _one_pass(self.workload, self.paths, self.directory)
            self.check(result)
            setup.append(result.setup_s)
            passes.append(result.sentence_s)
            accuracy.append(workloads.accuracy(result))

        self.loop(step)
        times = [_contended(sentence) for sentence in zip(*passes)]
        print(f"passes: {len(passes)}, sentence times: {len(times)}, "
              f"failed_share: {self.failed / self.attempted!r} ({self.failed}/{self.attempted})")
        return {
            # set-up is short and repeated every pass, so nearly every run
            # has one in a quiet moment: its fastest time moves least between runs
            "setup_s": min(setup),
            "sentences_per_s": 1 / statistics.fmean(times),
            "sentence_p50_ms": 1000 * statistics.median(times),
            "sentence_p95_ms": 1000 * _quantile(times, 0.95),
            "accuracy": statistics.median(accuracy),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        untraced, traced, tracers = [], [], []

        def step():
            plain = _one_pass(self.workload, self.paths, self.directory)
            self.check(plain)
            untraced.append(_total_s(self.workload, plain))
            tracer = workloads.Tracer()
            result = _traced_pass(self.workload, self.paths, self.directory, tracer)
            self.check(result)
            if result.outputs != plain.outputs or result.output_bytes != plain.output_bytes:
                self.problems.append("traced outputs differ from untraced outputs")
            self.self_check(result)
            traced.append(_total_s(self.workload, result))
            tracers.append(tracer)

        self.loop(step)
        counts = [self.counts(tracer) for tracer in tracers]
        if any(c != counts[0] for c in counts):
            self.problems.append("work counts differ between traced passes")
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            layer = name[:-2]
            if unit == "s" and not name.startswith("trace."):
                metrics[name] = statistics.median(t.self_s[layer] for t in tracers)
            elif name in counts[0]:
                metrics[name] = counts[0][name]
        wall = [sum(t.self_s.values()) for t in tracers]
        unattributed = [total - layers for total, layers in zip(traced, wall)]
        if min(unattributed) < -1e-9:
            self.problems.append("layer self times exceed the traced wall time")
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.unattributed_s"] = statistics.median(unattributed)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}")
        layer_s = {n: v for n, v in metrics.items() if n.endswith(".s")}
        total = sum(layer_s.values())
        for name, value in sorted(layer_s.items(), key=lambda item: -item[1]):
            if value:
                print(f"  {name}: {value:.4f} s, {100 * value / total:.1f}% of layer time")
        return metrics

    def counts(self, tracer) -> dict[str, float]:
        sentences = len(self.keys)
        model_calls = sum(v for k, v in tracer.counts.items() if k.startswith("decode.model.")
                          and k.endswith(".calls"))
        distinct = tracer.counts["decode.model.distinct_steps"]
        counts = {f"{name}.calls": tracer.calls[name]
                  for name in ("decode.beam_search", "decode.constrained_beam_search",
                               "lattice.compose_lattice")}
        for name in ("decode.beam_search.candidates", "decode.model.next_scores.calls",
                     "decode.model.score_token.calls", "decode.model.distinct_steps",
                     "lattice.paths", "evaluation.align.hypotheses",
                     "rerank.rerank.hypotheses", "formats.lines_read"):
            counts[name] = tracer.counts[name]
        counts["decode.model.step_reuse"] = 1 - distinct / model_calls if model_calls else 0.0
        counts["rerank.changed_share"] = tracer.counts["rerank.changed"] / sentences
        return counts

    def self_check(self, result) -> None:
        """The inputs still exercise what the workload was chosen for."""
        if self.workload == "eval-b20":
            found = {}
            for rank in result.first_agreeing.values():
                found[rank] = found.get(rank, 0) + 1
            if found != {**FEM_RANK_COUNTS, None: FLOOR_ROW_COUNT}:
                self.problems.append(f"first-agreeing rank histogram {found} does not "
                                     f"match the benchmark design")
        elif self.workload == "reinflect-b64":
            if set(result.lattice_paths) != {workloads.LATTICE_PATHS} or \
                    set(result.list_sizes) != {workloads.LATTICE_PATHS}:
                self.problems.append("a lattice or list does not hold all 64 variants")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        _make_inputs(args.workload, args.seed, directory)
        run = Run(args.workload, args.seconds, directory)
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for problem in dict.fromkeys(run.problems):
        print(f"FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
