#!/usr/bin/env python3
"""
scsort benchmark.  Stdlib only; see README.md in this directory.

    python3 benchmarks/run.py --workload search-l9 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1          # every workload
    python3 benchmarks/run.py --compare PARENT_DIR CHANGE_DIR  # two sets of --record runs

A run measures whole passes over the workload's seeded cycle of operations
until ``--seconds`` of operation time are reached, checks every output
against an oracle, prints each metric with its unit and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from compare import compare, tail
from hostspeed import WINDOW_S, HostSpeed
from spans import NULL, Recorder

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
CONFIG = REPO / "BENCHMARK.json"
OUT = HERE / "out"
SETUP_REPS = 11  # set-up processes whose median is setup_s
PROBE_REPS = 5  # interpreter and import probes in the traced cli-oneshot run
SHOWN_ERRORS = 5


def _load_config() -> dict:
    return json.loads(CONFIG.read_text())


def _import_workloads():
    if not (REPO / "src" / "scsort" / "__init__.py").is_file():
        raise SystemExit(f"error: no scsort sources under {REPO / 'src'}; "
                         "run from a full checkout of the repository")
    import workloads
    return workloads


class _ForkCounter:
    """Counts forks of this process, such as a fork-based process pool's workers."""

    def __init__(self) -> None:
        self.forks = 0
        os.register_at_fork(after_in_parent=self._seen)

    def _seen(self) -> None:
        self.forks += 1


def _measure(w, tr, seconds: float) -> dict:
    """
    Closed loop, one client: run whole passes over ``w.stream`` until the
    operations have taken ``seconds``.  Only the operation is timed; the
    oracle check and a garbage collection run between operations.
    ``latencies`` are corrected to the reference host speed (see
    hostspeed.py), ``measured`` are as the clock read them.
    """
    intervals: list[tuple[float, float]] = []
    failed = passes = 0
    errors: list[str] = []
    with HostSpeed() as speed:
        while passes == 0 or sum(e - s for s, e in intervals) < seconds:
            for i in range(len(w.stream)):
                gc.collect()
                tr.op_id = len(intervals)
                out = problems = None
                t0 = time.perf_counter()
                try:
                    with tr.span("bench.op"):
                        out = w.op(i, tr)
                except Exception:  # a failed operation is counted, the run goes on
                    problems = [traceback.format_exc(limit=3)]
                intervals.append((t0, time.perf_counter()))
                tr.op_id = None
                if problems is None:
                    try:
                        problems = w.check(i, out)
                    except Exception:
                        problems = [traceback.format_exc(limit=3)]
                out = None  # the next operation starts without this one's result alive
                if problems:
                    failed += 1
                    errors += problems
            passes += 1
        time.sleep(WINDOW_S)  # probes after the last operation
    return {"latencies": [speed.correct(s, e) for s, e in intervals],
            "measured": [e - s for s, e in intervals],
            "passes": passes, "failed": failed, "errors": errors}


def _setup_times(name: str, seed: int) -> list[float]:
    """
    Wall time from starting a fresh process to its first timed operation,
    corrected to the reference host speed like the operations.
    """
    intervals = []
    with HostSpeed() as speed:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--setup-only",
                 "--workload", name, "--seed", str(seed)],
                cwd=REPO, stdout=subprocess.PIPE, text=True)
            try:
                line = proc.stdout.readline()
                intervals.append((t0, time.perf_counter()))
                proc.stdout.close()
            finally:
                proc.wait(timeout=60)
            if line.strip() != "ready" or proc.returncode != 0:
                raise RuntimeError(f"set-up process for {name} failed (exit {proc.returncode})")
        time.sleep(WINDOW_S)  # probes after the last set-up
    return [speed.correct(s, e) for s, e in intervals]


def _end_to_end(w, name: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    m = _measure(w, NULL, seconds)
    lat = m["latencies"]
    who = resource.RUSAGE_CHILDREN if name == "cli-oneshot" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024  # read before set-up processes run
    setups = _setup_times(name, seed)
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setups),
    }
    details = {
        "ops": len(lat), "passes": m["passes"], "fail_ratio": m["failed"] / len(lat),
        "op_tail_pct": tail_pct, "op_tail_beyond": beyond, "setup_samples": setups,
        "measured_ops_per_s": len(lat) / sum(m["measured"]),
        "measured_op_p50_s": statistics.median(m["measured"]),
    }
    return metrics, details, m


def _per_layer(w, rec: Recorder, name: str, seconds: float,
               claim_ids: tuple[str, ...]) -> tuple[dict, dict, list[dict]]:
    """Untraced then traced passes over the same cycle; per-layer numbers per pass."""
    base = _measure(w, NULL, seconds / 2)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    forks = _ForkCounter()
    traced = _measure(w, rec, seconds / 2)
    children_ran = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt > children_before
    probes = {}
    if name == "cli-oneshot":
        probes["interpreter"] = statistics.median(w.probe("pass", PROBE_REPS))
        probes["import"] = statistics.median(w.probe("import scsort.cli", PROBE_REPS))

    passes = traced["passes"]
    s = rec.summary()
    none = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def stat(span: str, key: str) -> float:
        return s.get(span, none)[key]

    def counted(key: str) -> list[float]:
        return rec.counts.get(key, [])

    def rate(count_key: str, span: str) -> float:
        busy = stat(span, "busy_s")
        return sum(counted(count_key)) / busy if busy else 0.0

    def p50(span: str) -> float:
        d = rec.durations(span)
        return statistics.median(d) if d else 0.0

    op_busy = stat("bench.op", "busy_s")
    if name == "cli-oneshot":
        spawned = sum(stat(f"cli.{c}", "calls") for c in ("map", "construct", "fertility", "verify"))
    else:
        spawned = forks.forks or int(children_ran)
    m = {
        "fertility.preimages.calls": stat("fertility.preimages", "calls") / passes,
        "fertility.preimages.busy_s": stat("fertility.preimages", "busy_s") / passes,
        "fertility.preimages.self_s": stat("fertility.preimages", "self_s") / passes,
        "fertility.preimages.share": stat("fertility.preimages", "busy_s") / op_busy,
        "fertility.preimages.found": sum(counted("fertility.preimages.found")) / passes,
        "fertility.spectrum.busy_s": stat("fertility.spectrum", "busy_s") / passes,
        "fertility.spectrum.inputs_per_s": rate("fertility.spectrum.inputs", "fertility.spectrum"),
        "fertility.spectrum.image_size": max(counted("fertility.spectrum.image_size"), default=0),
        "fertility.counts_csv.busy_s": stat("fertility.counts_csv", "busy_s") / passes,
        "fertility.counts_csv.rows_per_s": rate("fertility.counts_csv.rows", "fertility.counts_csv"),
        **{f"verify.{cid}.busy_s": stat(f"verify.{cid}", "busy_s") / passes for cid in claim_ids},
        "verify.claims_passed": sum(counted("verify.claims_passed")) / passes,
        "constructions.construct.busy_s": stat("constructions.construct", "busy_s"),
        "constructions.construct_preimages.busy_s":
            stat("constructions.construct_preimages", "busy_s"),
        "perm_core.format_perm.calls": stat("perm_core.format_perm", "calls") / passes,
        "perm_core.format_perm.busy_s": stat("perm_core.format_perm", "busy_s") / passes,
        "cli.interpreter_s": probes.get("interpreter", 0.0),
        "cli.import_s": probes["import"] - probes["interpreter"] if probes else 0.0,
        **{f"cli.{c}.p50_s": p50(f"cli.{c}") for c in ("map", "construct", "fertility", "verify")},
        "bench.trace_overhead_ratio": (len(traced["latencies"]) / sum(traced["latencies"]))
        / (len(base["latencies"]) / sum(base["latencies"])),
        "bench.child_procs": spawned / passes,
    }
    details = {"ops": len(traced["latencies"]) + len(base["latencies"]), "passes": passes,
               "fail_ratio": (base["failed"] + traced["failed"])
               / (len(traced["latencies"]) + len(base["latencies"]))}
    return m, details, [base, traced]


def run_one(name: str, seed: int, seconds: float, trace: bool, record: Path | None) -> int:
    config = _load_config()
    # One core for the run and every process it starts, so that the host-speed
    # probes see the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = _import_workloads()
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    rec = Recorder() if trace else None
    w = workloads.WORKLOADS[name](seed, rec or NULL)
    if trace:
        values, details, phases = _per_layer(w, rec, name, seconds, workloads.CLAIM_IDS)
        spec = config["per_layer"]
        rec.dump(OUT / f"spans-{name}-seed{seed}.json")
    else:
        values, details, m = _end_to_end(w, name, seed, seconds)
        phases = [m]
        spec = config["end_to_end"]
    if set(values) != {s["name"] for s in spec}:
        raise RuntimeError(f"metrics {sorted(set(values) ^ {s['name'] for s in spec})} "
                           "do not match BENCHMARK.json")
    attempted = sum(len(p["latencies"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    errors = [e for p in phases for e in p["errors"]]
    for e in errors[:SHOWN_ERRORS]:
        print(f"FAIL {e}", file=sys.stderr)
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in spec}

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"{details['ops']} operations in {details['passes']} passes")
    for key, val in metrics.items():
        print(f"  {key:<42} {val['value']:>14.6g} {val['unit']}")
    print(f"  {'fail_ratio':<42} {details['fail_ratio']:>14.6g} 1")
    if not trace:
        print(f"  op_tail_s is p{details['op_tail_pct']:.1f} of {details['ops']} samples, "
              f"{details['op_tail_beyond']} beyond it")
        print(f"  times are corrected to the reference host speed; as measured: "
              f"ops_per_s {details['measured_ops_per_s']:.6g}, "
              f"op_p50_s {details['measured_op_p50_s']:.6g}")
    props = w.properties()
    print(f"  properties {json.dumps(props)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    if record:
        record.mkdir(parents=True, exist_ok=True)
        with open(record / f"{name}.jsonl", "a") as f:
            f.write(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                                "trace": int(trace), **result, "details": details,
                                "properties": props}) + "\n")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool, record: Path | None) -> int:
    """Each workload in its own process, so that set-up and peak RSS are its own."""
    results = {}
    for w in _load_config()["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        if record:
            cmd += ["--record", str(record)]
        proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w['name']} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[w["name"]] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="scsort benchmark")
    p.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="operation time to measure (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=lambda d: Path(d).resolve(),
                   help="append each run's record to DIR/<workload>.jsonl")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT_DIR", "CHANGE_DIR"))
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.compare:
        return compare(*args.compare, _load_config())
    if not args.workload:
        p.error("--workload or --compare is required")
    if args.setup_only:
        workloads = _import_workloads()
        workloads.WORKLOADS[args.workload](args.seed, NULL)
        print("ready", flush=True)
        return 0
    seconds = args.seconds if args.seconds is not None else _load_config()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace), args.record)
    return run_one(args.workload, args.seed, seconds, bool(args.trace), args.record)


if __name__ == "__main__":
    sys.exit(main())
