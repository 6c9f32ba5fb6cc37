"""
Statistics of a run's samples, and the comparison of two sets of runs (a
parent commit and a change) under the rule of the choosing-metrics guide §8.

Each set is a directory of ``<workload>.jsonl`` files, one record per
untraced run, as ``run.py --record DIR`` writes them.  Runs are paired in
the order they were recorded.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

GAIN_PAIR_SHARE = 0.9


def tail(samples: list[float]) -> tuple[float, float, int]:
    """
    The latency at the highest percentile with at least ten samples beyond
    it (nearest rank), that percentile, and the number of samples beyond.
    Below 20 samples that percentile would fall under the median, so the
    maximum is reported instead, with no sample beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    k = n - 11 if n >= 20 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value gives three equal."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """
    ``(verdict, wins, pairs)`` for one metric on one workload.  The verdict
    is ``gain`` when the change wins at least nine tenths of the pairs and
    the medians differ, in its favour, by more than the parent's quartile
    distance; ``unresolved`` when either side spreads wider than the bound
    and not every change run beats every parent run; ``regression`` when
    the change's median is worse than the parent's by more than the bound;
    ``no regression`` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if pairs and wins >= GAIN_PAIR_SHARE * len(pairs) and sign * (cmed - pmed) > p3 - p1:
        return "gain", wins, len(pairs)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -sign * (cmed - pmed) > bound * abs(pmed):
        return "regression", wins, len(pairs)
    return "no regression", wins, len(pairs)


def load(directory: Path, workload: str) -> list[dict]:
    path = directory / f"{workload}.jsonl"
    if not path.is_file():
        return []
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    return [r for r in records if not r["trace"]]


def compare(parent_dir: Path, change_dir: Path, config: dict) -> int:
    """Print one row per workload and end-to-end metric; 1 if any regression."""
    regressed = False
    print(f"{'workload':<13} {'metric':<12} {'parent q1/med/q3':<32} "
          f"{'change q1/med/q3':<32} {'wins':>7}  verdict")
    for w in config["workloads"]:
        parent, change = load(parent_dir, w["name"]), load(change_dir, w["name"])
        if not parent or not change:
            print(f"{w['name']:<13} missing runs: parent {len(parent)}, change {len(change)}")
            regressed = True
            continue
        for m in config["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in parent]
            cv = [r["metrics"][m["name"]]["value"] for r in change]
            v, wins, n = verdict(pv, cv, m["better"], m["bound"])
            regressed |= v == "regression"
            print(f"{w['name']:<13} {m['name']:<12} {_q(pv):<32} {_q(cv):<32} "
                  f"{wins:>3}/{n:<3}  {v}")
        pf = sum(r["failed"] for r in parent) / sum(r["attempted"] for r in parent)
        cf = sum(r["failed"] for r in change) / sum(r["attempted"] for r in change)
        v = "regression" if cf > pf else "no regression"
        regressed |= v == "regression"
        print(f"{w['name']:<13} {'fail_ratio':<12} {pf:<32.4g} {cf:<32.4g} {'':>7}  {v}")
    return 1 if regressed else 0


def _q(values: list[float]) -> str:
    return "/".join(f"{x:.4g}" for x in quartiles(values))
