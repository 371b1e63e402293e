"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload identify --seed 1 --seconds 20 --trace 0

Workloads: ``identify``, ``nights-wf21``, ``nights-fleet`` (see README.md).
The program is imported from ``src/`` next to this directory; it runs in
this one process, one operation at a time, with ``workers=1``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Any failed
check or exception counts as a failed operation and the exit code is 1;
a checkout without the program's sources exits with 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: a run always measures at least this many passes (one traced and one
#: untraced in a traced run)
MIN_PASSES = 2
#: wall seconds of one ``reference()`` call at the nominal machine speed
#: that every reported timing is scaled to (README, "Machine speed")
REFERENCE_S = 0.009
#: ``reference()`` calls per speed checkpoint
REFERENCE_SAMPLES = 3
#: a checkpoint is taken before an operation once this long has passed
#: since the previous one
CHECKPOINT_EVERY_S = 0.5

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def code_digest() -> str:
    """Digest of the program and benchmark sources a fingerprint belongs to."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_fingerprint(name: str, doc: dict) -> str | None:
    """Compare with the fingerprint an earlier run of the same code and
    seed left in ``out/``; store it when there is none.  Returns the
    mismatch, if any."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.fingerprint.json"
    doc = json.loads(json.dumps(doc))
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier.get("code") == doc["code"]:
            if earlier != doc:
                return f"fingerprint differs from the earlier run in {path.name}"
            return None
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1))
    os.replace(tmp, path)
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def reference() -> list:
    """A fixed pure-Python load: tuple keys counted in a dict, then sorted."""
    counts: dict = {}
    for i in range(20_000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


class Speed:
    """How fast the machine runs Python, read between operations.

    A shared machine's speed drifts by up to 2x over minutes and shifts in
    phases of seconds, far more than a change should be resolved by.
    ``reference()`` is timed at checkpoints between operations, and an
    operation's wall time is scaled by the speed at the checkpoints on
    either side of it, to what it would take at the nominal speed.
    """

    def __init__(self):
        self.checkpoints: list[float] = []  # median reference seconds
        self._taken_at = float("-inf")

    def checkpoint(self, force: bool = False) -> int:
        """Index of the latest checkpoint, taking a new one when due."""
        if force or clock() - self._taken_at >= CHECKPOINT_EVERY_S:
            samples = []
            for _ in range(REFERENCE_SAMPLES):
                started = clock()
                reference()
                samples.append(clock() - started)
            self.checkpoints.append(statistics.median(samples))
            self._taken_at = clock()
        return len(self.checkpoints) - 1

    def scale(self, checkpoint: int) -> float:
        """Nominal seconds per wall second between ``checkpoint`` and the next."""
        around = self.checkpoints[checkpoint : checkpoint + 2]
        return REFERENCE_S / statistics.fmean(around)

    @property
    def overall(self) -> float:
        return REFERENCE_S / statistics.median(self.checkpoints)


class Run:
    """Measured passes of one workload, with their checks."""

    def __init__(self, workload, recorder, speed: Speed):
        self.workload = workload
        self.recorder = recorder
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        #: (traced, pass index, wall seconds, speed checkpoint, work)
        self.ops: list[tuple[bool, int, float, int, float]] = []
        self.passes = 0
        self.costs: list[float] = []
        self.first_pass = None
        self.peak_rss_mb = 0.0
        self.traced_passes = 0
        self.counts: Counter = Counter()
        self.tap_ratios: list[float] = []
        self.plan_ratios: list[float] = []

    def fail(self, message: str) -> None:
        print(f"FAIL {message}", file=sys.stderr)

    def measure(self, seconds: float) -> None:
        """Whole passes until the next one would end after ``seconds``."""
        start = clock()
        index = 0
        last = 0.0
        while index < MIN_PASSES or clock() - start + last < seconds:
            began = clock()
            self.run_pass(index)
            last = clock() - began
            index += 1
            if index == MIN_PASSES:
                # a fixed amount of work, so a faster program that fits more
                # passes in does not read as a bigger one
                self.peak_rss_mb = peak_rss_mb()
        self.passes = index
        self.speed.checkpoint(force=True)

    def run_pass(self, index: int) -> None:
        wl = self.workload
        traced = self.recorder is not None and index % 2 == 0
        done = []
        if traced:
            self.recorder.install()
        try:
            for op in wl.ops():
                self.attempted += 1
                checkpoint = self.speed.checkpoint()
                prepared = wl.prepare(op)
                if traced:
                    self.recorder.begin(self.attempted)
                started = clock()
                try:
                    result = wl.execute(prepared)
                except Exception as exc:  # counted, reported, and the run goes on
                    self.failed += 1
                    self.fail(f"{op.key}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = clock() - started
                done.append((op, result, elapsed, checkpoint, self.attempted))
        finally:
            if traced:
                self.recorder.uninstall()

        fingerprint = []
        for op, result, elapsed, checkpoint, op_id in done:
            try:
                errors = wl.check(op, result)
                fingerprint.append(wl.fingerprint(op, result))
                if traced and wl.executes:
                    adopted, initial = wl.probe(op, result, clock)
                    tapped = self.recorder.inclusive(["engine.execute"], op=op_id)
                    self.tap_ratios.append(tapped / adopted)
                    self.plan_ratios.append(adopted / initial)
            except Exception as exc:
                errors = [f"{op.key}: {type(exc).__name__}: {exc}"]
            if errors:
                self.failed += 1
                for message in errors:
                    self.fail(message)
            self.ops.append(
                (traced, index, elapsed, checkpoint, wl.work(op, result))
            )
            if index == 0:
                self.costs.append(wl.cost(op, result))
            if traced:
                self.counts.update(wl.counts(op, result))
        if traced:
            self.traced_passes += 1
        fingerprint.sort(key=lambda row: row[0])
        if self.first_pass is None:
            self.first_pass = fingerprint
        elif fingerprint != self.first_pass:
            self.failed += 1
            self.fail(f"pass {index} fingerprint differs from pass 0")

    # -- metrics ---------------------------------------------------------------
    def latencies(self, traced=None) -> list[float]:
        """Operation times in nominal seconds (``traced`` None: all)."""
        scale = self.speed.scale
        return [
            wall * scale(checkpoint)
            for was_traced, _, wall, checkpoint, _ in self.ops
            if traced is None or was_traced == traced
        ]

    def end_to_end(self, setup_times) -> dict:
        latencies = self.latencies()
        by_pass = Counter()
        for (_, index, *_), latency in zip(self.ops, latencies):
            by_pass[index] += latency
        work = sum(op[4] for op in self.ops)
        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "latency_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
            "latency_ms_p90": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
            # a mean: machine speed shifts in phases of seconds, which a
            # mean over the run averages and a median of few passes picks
            "pass_s": (statistics.fmean(by_pass.values()), "s"),
            "work_per_s": (work / sum(latencies), "1/s"),
            "cost_gmean": (statistics.geometric_mean(self.costs), "cost"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self) -> dict:
        rec = self.recorder
        passes = max(self.traced_passes, 1)
        to_ms = self.speed.overall * 1e3 / passes

        def ms(*names):
            return (rec.inclusive(names) * to_ms, "ms")

        def per_pass(key):
            return (self.counts[key] / passes, "count")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        hits = self.counts["plan_cache_hits"]
        lookups = hits + self.counts["plan_cache_misses"]
        untraced = median_or_zero(self.latencies(traced=False))
        return {
            "algebra.analyze_ms": ms("algebra.analyze", "algebra.with_plans"),
            "core.generate_css_ms": ms("core.generate_css"),
            "core.build_problem_ms": ms("core.build_problem"),
            "core.solve_ms": ms("core.solve_ilp", "core.solve_greedy"),
            "core.histogram_build_ms": ms("core.histogram_build"),
            "core.statistics": per_pass("statistics"),
            "core.css": per_pass("css"),
            "core.chosen": per_pass("chosen"),
            "engine.execute_ms": ms("engine.execute"),
            "engine.execute_self_ms": (rec.self_time("engine.execute") * to_ms, "ms"),
            "engine.lower_ms": ms("engine.lower"),
            "engine.plan_cache_hit_ratio": ratio(hits, lookups),
            "engine.taps_ms": ms("engine.tap"),
            "engine.taps_calls": (rec.count("engine.tap") / passes, "count"),
            "engine.taps_rows": (rec.rows("engine.tap") / passes, "count"),
            "engine.tap_overhead_ratio": (median_or_zero(self.tap_ratios), "ratio"),
            "engine.adopted_plan_exec_ratio": (
                median_or_zero(self.plan_ratios), "ratio"
            ),
            "estimation.estimate_ms": ms("estimation.estimate"),
            "estimation.optimize_ms": ms("estimation.optimize"),
            "catalog.lookup_ms": ms("catalog.lookup"),
            "catalog.reconcile_ms": ms("catalog.reconcile"),
            "catalog.hit_ratio": ratio(
                self.counts["catalog_hits"], self.counts["selected"]
            ),
            "framework.self_ms": (rec.self_time("framework.run_once") * to_ms, "ms"),
            "bench.trace_overhead_ratio": ratio(
                median_or_zero(self.latencies(traced=True)), untraced
            ),
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose one of {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    speed = Speed()
    setup_walls = []
    warmups = []
    workload = None
    for _ in range(SETUP_REPS):
        workload = None  # release the previous set-up before the next
        gc.collect()
        checkpoint = speed.checkpoint(force=True)
        started = clock()
        workload = workloads.make(args.workload, args.seed)
        warmups.append(workload.setup())
        setup_walls.append((clock() - started, checkpoint))
    speed.checkpoint(force=True)
    setup_times = [wall * speed.scale(ck) for wall, ck in setup_walls]

    recorder = spans.Recorder(spans.targets(workloads)) if args.trace else None
    run = Run(workload, recorder, speed)
    # the benchmark's own inputs are long-lived; keep them out of the
    # collector's full passes, which a nightly job loading fresh sources
    # would not pay for
    gc.collect()
    gc.freeze()
    run.measure(args.seconds)

    if any(w != warmups[0] for w in warmups):
        run.failed += 1
        run.fail("warm-up fingerprints differ between set-ups")
    mismatch = check_fingerprint(
        f"{args.workload}-seed{args.seed}",
        {"code": code_digest(), "warmup": warmups[0], "pass": run.first_pass},
    )
    if mismatch:
        run.failed += 1
        run.fail(mismatch)

    if recorder is not None:
        metrics = run.per_layer()
        recorder.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        metrics = run.end_to_end(setup_times)
    print(
        f"workload {args.workload} seed {args.seed}: {run.passes} passes, "
        f"{len(run.ops)} operations ({run.traced_passes} passes traced); "
        f"{len(speed.checkpoints)} speed checkpoints, median scale "
        f"{speed.overall:.4f} to the nominal {REFERENCE_S * 1e3:g} ms reference"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'error_rate':32s} {run.failed / max(run.attempted, 1):14.6g} ratio")
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
