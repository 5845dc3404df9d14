"""Seeded benchmark of the wearauth data plane.

    python3 perfbench/run.py --workload {auth_hub_hbc,lifetime_wban,enroll} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  Each run is a
closed loop of one client: op ``i + 1`` starts after op ``i`` has finished.
It runs ops until ``--seconds`` of op time have passed (and at least the
workload's ``min_ops``), checks every output, and prints as its last line one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics from
the outside-in tracer with ``--trace 1``.  The line before it carries the
details: the simulated-statistics digest, the tail percentile and its sample
counts, and the set-up samples.  Work files and span logs go to
``.perfbench_out/`` in the checkout.  Exit status: 0 when every correctness
gate passed, 1 when one failed, 2 on a usage error or a checkout without the
package.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# Known before the package is importable, so that usage errors exit 2 first.
WORKLOAD_NAMES = ("auth_hub_hbc", "lifetime_wban", "enroll")
SETUP_CHILDREN = 2          # set-up runs in fresh interpreters, besides this one
TAIL_BEYOND = 10            # samples that must lie beyond the tail percentile
DECISION_KEYS = ("decided", "false_accept", "false_reject", "channel_error")


def _args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up time and exit")
    return ap.parse_args(argv)


def _set_up(args: argparse.Namespace, workdir: Path):
    """Import the package and build the workload's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads.WORKLOADS[args.workload](args.seed, workdir)


def _setup_samples(args: argparse.Namespace, own: float) -> list[float]:
    """This process's set-up time plus that of fresh interpreters."""
    samples = [own]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and that percentile."""
    ordered = sorted(durations)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _per_layer(tracer, wl, ops: int, traced_s: float, untraced_s: float) -> dict:
    from tracer import SPAN_NAMES

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = _metric(tracer.calls.get(name, 0) / ops, "count")
        metrics[f"{name}.self_s"] = _metric(tracer.self_ns.get(name, 0) / 1e9 / ops, "s")
    counts = tracer.counts
    matches = tracer.calls.get("matcher.match", 0)
    frames = tracer.calls.get("channel.receive_decode", 0)
    requests = counts.get("sim.requests", 0)
    passes = matches / wl.gallery_size if wl.gallery_size else 0
    for key in ("present.ctr_bytes", "matcher.pair_work", "channel.samples",
                "sim.requests", "fingerprint.minutiae_out"):
        metrics[key] = _metric(counts.get(key, 0) / ops, "count")
    metrics["sim.data_plane_passes"] = _metric(passes / ops, "count")
    metrics["matcher.accept_ratio"] = _metric(
        counts.get("matcher.accepts", 0) / matches if matches else 0.0, "ratio")
    metrics["channel.frame_fail_ratio"] = _metric(
        tracer.frame_failures / frames if frames else 0.0, "ratio")
    metrics["sim.replay_ratio"] = _metric(
        (requests - passes) / requests if requests else 0.0, "ratio")
    metrics["trace.overhead_ops_per_s"] = _metric(ops / traced_s - ops / untraced_s, "1/s")
    return metrics


def main(argv: list[str]) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "wearauth" / "__init__.py").is_file():
        print(f"no wearauth package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("--seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = _set_up(args, Path(tmp))
        own_setup = time.perf_counter() - _START
        if args.setup_only:
            print(own_setup)
            return 0
        return _measure(args, wl, own_setup)


def _timed(wl, item, tracing):
    """Run one op inside ``tracing`` (a tracer context or a null one)."""
    with tracing:
        t0 = time.perf_counter()
        out = wl.run(item)
        elapsed = time.perf_counter() - t0
    return out, elapsed


def _measure(args: argparse.Namespace, wl, own_setup: float) -> int:
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    durations: list[float] = []
    traced_s = 0.0
    records, problems = [], []
    failed = requests = 0
    tally: Counter = Counter()
    spent = 0.0
    i = 0
    while spent < args.seconds or i < wl.min_ops:
        item = wl.prepare(i)
        # With tracing, the same input also runs traced, after or before the
        # untraced run in turn; the difference is the tracing overhead.
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced and tracer is None:
                continue
            runs[traced] = _timed(wl, item, tracer.active(i) if traced else nullcontext())
            spent += runs[traced][1]
        out, elapsed = runs[False]
        durations.append(elapsed)
        result = wl.check(item, out)
        if tracer is not None:
            traced_out, traced_elapsed = runs[True]
            traced_s += traced_elapsed
            if wl.check(item, traced_out).record != result.record:
                problems.append(f"op {i}: tracing changed the simulated statistics")
        failed += result.failed
        requests += result.requests
        tally += result.tally
        problems += result.problems
        if i < wl.min_ops:
            records.append(result.record)
        i += 1
    with tracer.active("finish") if tracer is not None else nullcontext():
        problems += wl.finish()

    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    details = {"workload": args.workload, "seed": args.seed, "ops": i,
               "digest": {"ops": len(records), "sha256": digest},
               "decisions": {k: tally[k] for k in DECISION_KEYS}, "problems": problems}
    if tracer is None:
        tail, pct = _tail(durations)
        setup = _setup_samples(args, own_setup)
        op_time = sum(durations)
        metrics = {
            "op_s_p50": _metric(statistics.median(durations), "s"),
            "op_s_tail": _metric(tail, "s"),
            "ops_per_s": _metric(i / op_time, "1/s"),
            "sim_requests_per_s": _metric(requests / op_time, "1/s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": _metric(statistics.median(setup), "s"),
        }
        if tally["decided"]:
            wrong = tally["false_accept"] + tally["false_reject"]
            metrics["decision_accuracy"] = _metric(1.0 - wrong / tally["decided"], "ratio")
        details.update(op_s_tail_percentile=pct, op_s_tail_samples_beyond=TAIL_BEYOND,
                       setup_samples_s=setup, op_s=durations)
    else:
        missing = tracer.missing(wl.expected_spans)
        if missing:
            print(f"layers expected on {args.workload} recorded no spans: {missing}",
                  file=sys.stderr)
            return 1
        metrics = _per_layer(tracer, wl, i, traced_s, sum(durations))
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        details.update(spans=str(spans.relative_to(ROOT)), spans_recorded=len(tracer.spans),
                       traced_ops_per_s=i / traced_s, untraced_ops_per_s=i / sum(durations))
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not problems, "attempted": i, "failed": failed,
                      "metrics": metrics}))
    if problems:
        print("\n".join(problems), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
