"""Benchmark of the gosil pipeline through its public functions.

One process, one thread, a closed loop with a single client: each operation
starts only after the previous one returns. Run from the repository root:

    python3 perfbench/run.py --workload check_wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

`--trace 0` measures untraced and prints the end-to-end metrics. `--trace 1`
runs traced for half of `--seconds`, then runs the same operations untraced
on a second, unused copy of the workload, and prints the per-layer metrics,
per operation of the traced half, with the tracing overhead. `--smoke` runs
every workload briefly in both modes. Every output is checked against a
reference built by the benchmark itself. The last line of standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import LAYERS, PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS, WRAPPED  # noqa: E402

# Set-up runs this many times, each from a fresh import; its median is setup_s.
SETUPS = 5
# Structures used to compare wrapped and grounded evaluation in a traced run.
CALIBRATION_STRUCTURES = 1000
SMOKE_SECONDS = 1.0

# ROADMAP baselines, printed next to the measured values as a sanity check.
BASELINE_EVALUATE_US = {
    "compact_def": "577 us wrapped, 46 us grounded",
    "compact_specific": "499 us wrapped",
}
BASELINE_MODELS_S = 2.3

clock = time.perf_counter


def import_gosil() -> dict[str, object]:
    """A fresh import of the gosil under SRC; earlier imports are dropped so
    that their cost counts in every set-up."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"imported {package.__file__}, expected the package under {SRC}")
    for layer in LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer}")
    return Tracer.modules()


def set_up(workload_cls, seed: int, workdir: Path):
    times = []
    workload = None
    for _ in range(SETUPS):
        workload = None  # release the previous copy before building the next
        t0 = clock()
        workload = workload_cls(import_gosil(), seed, workdir)
        times.append(clock() - t0)
    return workload, statistics.median(times)


class Phase:
    """Operations run back to back from index 0, for `seconds` or for `ops`
    operations, each prepared before its timer starts and checked against
    its reference after its timer stops."""

    def __init__(self, workload, seconds: float | None = None, ops: int | None = None):
        self.durations: list[float] = []
        self.failed = 0
        bytes_before = workload.bytes_out
        deadline = None if seconds is None else clock() + seconds
        i = 0
        while True:
            workload.prepare(i)
            t0 = clock()
            try:
                output = workload.run(i)
            except Exception:  # any raise is a failed operation
                output = None
            t1 = clock()
            self.durations.append(t1 - t0)
            if output is None or not _verified(workload, output):
                self.failed += 1
            i += 1
            if (t1 >= deadline) if ops is None else (i >= ops):
                break
        self.bytes_out = workload.bytes_out - bytes_before

    @property
    def ops(self) -> int:
        return len(self.durations)

    @property
    def ops_per_s(self) -> float:
        return self.ops / sum(self.durations)


def _verified(workload, output) -> bool:
    try:
        return workload.verify(output)
    except (ValueError, KeyError, TypeError):  # unparsable output
        return False


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, setup_s: float, seconds: float) -> tuple[dict, int, int]:
    phase = Phase(workload, seconds)
    d = phase.durations
    p50 = statistics.median(d)
    print(f"{workload.name}: {phase.ops} operations, {phase.failed} failed "
          f"(failed_ratio {phase.failed / phase.ops}), latency p50 {p50 * 1e3:.3f} ms")
    if phase.ops >= 100:
        p90 = statistics.quantiles(d, n=10)[8]
        print(f"{workload.name}: latency p90 {p90 * 1e3:.3f} ms over {phase.ops} samples")
    if workload.name == "models_sounds":
        print(f"baseline check: models_sounds median {p50:.3f} s per operation "
              f"(ROADMAP baseline {BASELINE_MODELS_S} s at Animal=2)")
    metrics = {
        "throughput_ops_s": _metric(phase.ops_per_s, "1/s"),
        "latency_p50_ms": _metric(p50 * 1e3, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, phase.ops, phase.failed


def traced(workload, fresh, seconds: float, calibration: int) -> tuple[dict, int, int]:
    """The traced half runs `workload` for half of `seconds`. The untraced
    half then runs the same operations, from index 0, on `fresh`, a second
    copy of the workload that nothing has run on yet."""
    tracer = Tracer()
    with tracer:
        hot = Phase(workload, seconds / 2)
    # restore() has checked by identity that every binding is the original
    cold = Phase(fresh, ops=hot.ops)

    n = hot.ops
    counts = tracer.counts

    def per_op(value):
        return value / n

    candidates = tracer.spans("models", "semantics", "validate_structure")
    parser_s = tracer.layer_self("parser")
    metrics = {
        "parser.self_s": _metric(per_op(parser_s), "s/op"),
        "parser.tokens": _metric(per_op(counts["parser.tokens"]), "count/op"),
        "parser.tokens_per_s": _metric(counts["parser.tokens"] / parser_s if parser_s else 0.0, "1/s"),
        "vocabulary.lookups": _metric(per_op(counts["vocabulary.lookups"]), "count/op"),
        "ast.format_s": _metric(per_op(sum(
            tracer.layer_self("ast", fn) for fn in ("format_formula", "format_term", "format_theory")
        )), "s/op"),
        "typecheck.self_s": _metric(per_op(tracer.layer_self("typecheck")), "s/op"),
        "typecheck.sentences": _metric(per_op(tracer.spans(None, "typecheck", "check_sentence")), "count/op"),
        "typecheck.initial_contexts": _metric(per_op(counts["typecheck.initial_contexts"]), "count/op"),
        "typecheck.derivation_nodes": _metric(per_op(counts["typecheck.derivation_nodes"]), "count/op"),
        "elaboration.self_s": _metric(per_op(tracer.layer_self("elaboration")), "s/op"),
        "elaboration.from_typecheck": _metric(per_op(tracer.spans("typecheck", "elaboration")), "count/op"),
        "elaboration.from_semantics": _metric(per_op(tracer.spans("semantics", "elaboration")), "count/op"),
        "grounding.self_s": _metric(per_op(tracer.layer_self("grounding")), "s/op"),
        "grounding.interp_builds": _metric(per_op(counts["grounding.interp_builds"]), "count/op"),
        "grounding.atoms_out": _metric(per_op(counts["grounding.atoms_out"]), "count/op"),
        "semantics.evaluate_self_s": _metric(per_op(tracer.layer_self("semantics", "evaluate")), "s/op"),
        "semantics.evaluations": _metric(per_op(tracer.spans(None, "semantics", "evaluate")), "count/op"),
        "semantics.validate_s": _metric(per_op(tracer.span_seconds(None, "semantics", "validate_structure")), "s/op"),
        "models.self_s": _metric(per_op(tracer.layer_self("models")), "s/op"),
        "models.candidates": _metric(per_op(candidates), "count/op"),
        "models.found": _metric(per_op(counts["models.found"]), "count/op"),
        "models.yield": _metric(counts["models.found"] / candidates if candidates else 0.0, "ratio"),
        "cli.self_s": _metric(per_op(tracer.layer_self("cli")), "s/op"),
        "cli.output_bytes": _metric(per_op(hot.bytes_out), "bytes/op"),
        "trace.overhead": _metric(cold.ops_per_s / hot.ops_per_s, "ratio"),
        "trace.traced_ops_s": _metric(hot.ops_per_s, "1/s"),
        "trace.untraced_ops_s": _metric(cold.ops_per_s, "1/s"),
    }

    wrapped = grounded = 0.0
    if hasattr(fresh, "wrapped_vs_grounded"):
        per_sentence = fresh.wrapped_vs_grounded(calibration, clock)
        for label in WRAPPED:
            w, g = per_sentence[label]
            print(f"baseline check: {label} evaluate {w * 1e6:.1f} us wrapped, {g * 1e6:.1f} us "
                  f"grounded (ROADMAP baseline {BASELINE_EVALUATE_US[label]})")
        wrapped = statistics.fmean(w for w, _ in per_sentence.values())
        grounded = statistics.fmean(g for _, g in per_sentence.values())
    metrics["semantics.wrapped_eval_us"] = _metric(wrapped * 1e6, "us")
    metrics["semantics.grounded_eval_us"] = _metric(grounded * 1e6, "us")
    metrics["semantics.wrapped_over_grounded"] = _metric(wrapped / grounded if grounded else 0.0, "ratio")

    print(f"{workload.name}: traced {hot.ops} operations at {hot.ops_per_s:.3f}/s, "
          f"untraced {cold.ops} at {cold.ops_per_s:.3f}/s")
    print("layer spans per traced operation (caller -> layer.entry: spans, seconds):")
    for caller, target, spans, seconds_in in tracer.edge_table():
        print(f"  {caller} -> {target}: {spans / n:.2f}, {seconds_in / n:.6f}")
    return metrics, hot.ops + cold.ops, hot.failed + cold.failed


def run(name: str, seed: int, seconds: float, trace: bool, calibration: int) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        workload_cls = WORKLOADS[name]
        workload, setup_s = set_up(workload_cls, seed, workdir)
        if trace:
            fresh = workload_cls(Tracer.modules(), seed, workdir)
            metrics, attempted, failed = traced(workload, fresh, seconds, calibration)
            correct = failed == 0 and workload.finish() and fresh.finish()
        else:
            metrics, attempted, failed = end_to_end(workload, setup_s, seconds)
            correct = failed == 0 and workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke() -> bool:
    """Every workload briefly, traced then untraced, with every reference
    check on; the metric names and units must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for name in WORKLOADS:
        for trace, declared in ((True, spec["per_layer"]), (False, spec["end_to_end"])):
            result = run(name, 0, SMOKE_SECONDS, trace, calibration=20)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            good = result["correct"] and units == want
            ok = ok and good
            print(f"smoke {name} trace={int(trace)}: {'ok' if good else 'FAILED'} "
                  f"({result['attempted']} operations, {result['failed']} failed)")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        ok = smoke()
        print(json.dumps({"smoke": "ok" if ok else "failed"}))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), CALIBRATION_STRUCTURES)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
