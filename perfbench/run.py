#!/usr/bin/env python3
"""nilqp benchmark: one workload, one seed, one closed-loop run.

Run from the repository root:

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 15 --trace 0

One caller in one process and thread sends each item when the previous one
has finished.  The item list is fixed by the workload, the seed and
``--seconds``; inputs are built before timing starts, reference answers in a
child process, and every output is checked after timing ends.  With
``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` the
first rounds of the item list run with spans at each layer boundary and again
without, which gives the per-layer metrics and the tracing overhead.

The human-readable report goes to stdout, followed by one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(run metadata, input shares, failing inputs) is written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
SETUP_PROCESSES = 7  # measured child processes for setup_s, after one warm-up
LOOP_LIMIT_S = 75.0  # the timed loop stops here even if items remain
WORKLOADS = ("verdicts", "search_budget", "betti", "bigraded_qi")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [
        path
        for path in (os.path.join(SRC, "nilqp", "__init__.py"), os.path.join(TESTS, "oracles.py"))
        if not os.path.isfile(path)
    ]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, TESTS]
    import nilqp

    if not os.path.abspath(nilqp.__file__).startswith(SRC + os.sep):
        print(f"perfbench: nilqp imported from {nilqp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    meta = run_metadata(args, nilqp.backend_name())
    for key, value in meta.items():
        print(f"# {key}: {value}")

    clock = [time.perf_counter()]
    phases = {}

    def phase(name):
        clock.append(time.perf_counter())
        phases[name] = clock[-1] - clock[-2]

    setup = None if args.trace else measure_setup()
    phase("setup")
    w = workloads.BY_NAME[args.workload]
    refs = references(args.workload)
    phase("references")
    if args.trace:
        record = traced_run(w, args.seed, refs)
        phase("traced")
    else:
        rounds = workloads.rounds_for(w, args.seconds)
        items = workloads.build(w, args.seed, rounds, refs)
        phase("build")
        record = timed_run(items, len(refs))
        phase("loop_and_checks")
        record["rounds"] = rounds
        record["metrics"]["setup_s"] = (statistics.median(setup[0]), "s")
        record["raw_metrics"]["setup_s"] = (statistics.median(setup[1]), "s")
        record["setup_samples_s"] = setup[1]

    record["meta"] = meta
    record["phase_s"] = phases
    for key, value in sorted(record["properties"].items()):
        print(f"# input {key}: {value}")
    for failure in record["failures"]:
        print(f"FAILED {failure['label']} (item {failure['item']}): {failure['error']}")
    print(f"# failed_ratio: {record['failed_ratio']} of {record['attempted']} items")
    for name, (value, unit) in record.get("raw_metrics", {}).items():
        print(f"# uncorrected {name} = {value:.6g} {unit}")
    for name, (value, unit) in record["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    write_record(args, record)
    print(
        json.dumps(
            {
                "correct": not record["failures"],
                "attempted": record["attempted"],
                "failed": len(record["failures"]),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
            }
        )
    )
    return 0


def run_metadata(args, backend: str) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "nilqp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": backend,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure_setup() -> tuple[list[float], list[float]]:
    """Import-and-catalog seconds in fresh processes, (corrected, raw).

    The first (warm-up) process is dropped.  Each child's time is scaled by
    the full speed ratio of a probe taken in the same process (see speed.py).
    """
    corrected, raw = [], []
    for k in range(SETUP_PROCESSES + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if k:
            seconds, probe_s = map(float, out.stdout.split()[-2:])
            raw.append(seconds)
            corrected.append(seconds * speed.NOMINAL_S / probe_s)
    return corrected, raw


def references(workload: str) -> list:
    """The workload's reference answers, computed in a child process."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "references.py"), ROOT, workload],
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(out.stdout)


def execute(items, indices, track=None):
    """Run the items in order; returns ([(start, seconds)], [(index, output)])."""
    times, outputs = [], []
    for idx in indices:
        t0 = time.perf_counter()
        try:
            out = items[idx].call()
        except Exception as exc:  # a raised error is a failed item, not a crash
            out = exc
        times.append((t0, time.perf_counter() - t0))
        outputs.append((idx, out))
        if track is not None:
            track.maybe_sample()
    return times, outputs


def _latency_metrics(seconds: list[float], loop_s: float) -> dict:
    ms = sorted(x * 1e3 for x in seconds)
    return {
        "items_per_s": (len(ms) / loop_s, "1/s"),
        "item_ms.p50": (statistics.median(ms), "ms"),
        "item_ms.p90": (statistics.quantiles(ms, n=10)[8], "ms"),
    }


def timed_run(items, first_round: int) -> dict:
    """Closed loop: every item once, in order, each on its own algebra.

    The list is fixed by the seed and ``--seconds``, so every commit times
    the same items.  It stops early only past LOOP_LIMIT_S, to keep a much
    slower program within the run's time limit.  Latencies are scaled for
    the machine's speed (see speed.py), and ``items_per_s`` is the items
    completed over the loop's wall time without the probes, scaled alike:
    the sum of the scaled latencies.
    """
    track = speed.SpeedTrack()
    times, outputs = [], []
    start = time.perf_counter()
    for idx in range(len(items)):
        if time.perf_counter() - start > LOOP_LIMIT_S:
            break
        t, out = execute(items, [idx], track)
        times += t
        outputs += out
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    track.sample()
    corrected = [lat * track.factor(t0, t0 + lat) for t0, lat in times]
    record = summarize(items, outputs, first_round)
    record["metrics"] = {
        **_latency_metrics(corrected, sum(corrected)),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record["raw_metrics"] = _latency_metrics([lat for _, lat in times], wall - track.probe_s)
    record["probes"] = [[t - start, v] for t, v in zip(track.times, track.values)]
    record["items"] = [
        [items[idx].label, t0 - start, lat, c] for (idx, _), (t0, lat), c in zip(outputs, times, corrected)
    ]
    record["wall_s"] = wall
    record["truncated"] = len(outputs) < len(items)
    return record


def traced_run(w, seed: int, refs: list) -> dict:
    """The first rounds of the list, item by item traced, then untraced; per-layer metrics.

    The untraced run of each item takes an equal copy of its algebra, built
    before timing like every input, right after the traced run, so machine
    drift stays out of the overhead.  The traced run goes first, so its
    counts are those of a cold call.  Times are scaled for machine speed as
    in timed_run.
    """
    import tracing
    import workloads

    traced_items = workloads.build(w, seed, w.trace_rounds, refs)
    plain_items = workloads.build(w, seed, w.trace_rounds, refs)
    track = speed.SpeedTrack()
    tracer = tracing.Tracer()
    untraced = traced = traced_raw = 0.0
    outputs = []
    for idx in range(len(traced_items)):
        tracer.item = idx
        tracer.install(extra_modules=[workloads])
        try:
            [(t0, lat)], out = execute(traced_items, [idx])
        finally:
            tracer.uninstall()
        traced += lat * track.factor(t0, t0 + lat)
        traced_raw += lat
        outputs += out
        [(t0, lat)], _ = execute(plain_items, [idx])
        untraced += lat * track.factor(t0, t0 + lat)
        track.maybe_sample()
    scale = traced / traced_raw
    record = summarize(traced_items, outputs, len(refs))
    record["metrics"] = {
        k: (v * scale if u == "s" else v, u) for k, (v, u) in tracing.layer_metrics(tracer).items()
    }
    record["metrics"]["trace.overhead_s"] = (traced - untraced, "s")
    record["untraced_s"] = untraced
    record["traced_s"] = traced
    record["probe_s"] = track.values
    record["spans"] = tracer.spans
    return record


def summarize(items, outputs, first_round: int) -> dict:
    """Check every output and tally the input property shares of the items run.

    For ``search_budget``, the items of the first round (one per base) whose
    search found nothing are rerun to see whether it stopped at ``max_nodes``.
    """
    from nilqp.checker import PASSES_NECESSARY

    failures = []
    for idx, out in outputs:
        item = items[idx]
        if isinstance(out, Exception):
            error = f"{type(out).__name__}: {out}"
        else:
            try:
                error = item.check(out)
            except Exception as exc:  # a check that cannot run counts the item as failed
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append({"item": idx, "label": item.label, "error": error})
    attempted = len(outputs)
    shapes = collections.Counter(f"dim{items[i].algebra.dim}.{items[i].algebra.field}" for i, _ in outputs)
    properties = {f"share.{k}": v / attempted for k, v in sorted(shapes.items())}
    verdicts = collections.Counter(
        items[i].verdict(out) for i, out in outputs if not isinstance(out, Exception)
    )
    verdicts.pop(None, None)
    for status, count in sorted(verdicts.items()):
        properties[f"verdict_share.{status}"] = count / attempted
    first = [(i, out) for i, out in outputs[:first_round] if items[i].exhausts is not None]
    if first:
        exhausted = [
            items[i].label
            for i, out in first
            if getattr(out, "status", None) == PASSES_NECESSARY and items[i].exhausts()
        ]
        properties["first_round.exhausted_share"] = len(exhausted) / len(first)
        properties["first_round.exhausted"] = exhausted
    return {
        "attempted": attempted,
        "failures": failures,
        "failed_ratio": len(failures) / attempted,
        "properties": properties,
    }


def write_record(args, record) -> None:
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = record.pop("spans", None)
    if spans is not None:
        with open(stem + ".spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    tables = {
        key: {k: {"value": v, "unit": u} for k, (v, u) in record[key].items()}
        for key in ("metrics", "raw_metrics")
        if key in record
    }
    with open(stem + ".json", "w") as fh:
        json.dump({**record, **tables}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
