"""
Tests of the benchmark itself: every oracle check catches a wrong result,
and the statistics, span recorder and compare rule behave as documented.

    python3 -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import compare
import run
import workloads
from hostspeed import REF_PROBE_S, WINDOW_S, HostSpeed
from scsort import FertilityReport, preimages, sc_machine
from spans import NULL, Recorder


@pytest.fixture
def inverted_pop_rule(monkeypatch):
    """The mutation of acceptance criterion 11: the pop test is negated."""
    original = sc_machine._pop_rule

    def inverted(sigma):
        rule = original(sigma)
        return lambda pending, top, second: not rule(pending, top, second)

    monkeypatch.setattr(sc_machine, "_pop_rule", inverted)


@pytest.fixture(scope="module")
def search():
    return workloads.SearchL9(7, NULL)


def _index(w, kind):
    return next(i for i, s in enumerate(w.stream) if s[1] == kind)


def test_lex_rank_follows_lexicographic_order():
    assert [workloads._lex_rank(p) for p in permutations(range(1, 5))] == list(range(24))


@pytest.mark.parametrize("kind", ["witness", "image", "random"])
def test_search_check_accepts_correct_output(search, kind):
    i = _index(search, kind)
    assert search.check(i, search.op(i, NULL)) == []


def test_search_check_catches_dropped_preimage(search):
    for kind in ("witness", "image"):
        i = _index(search, kind)
        report, texts = search.op(i, NULL)
        # Drop the seeded tau (image) or the first listed preimage (witness).
        drop = search.stream[i][3] or report.preimages[0]
        kept = tuple(p for p in report.preimages if p != drop)
        bad = FertilityReport(report.sigma, report.target, len(kept), kept)
        assert search.check(i, (bad, [t for t in texts if t != workloads.format_perm(drop)]))


def test_search_check_catches_disorder_and_bad_text(search):
    i = _index(search, "witness")
    report, texts = search.op(i, NULL)
    flipped = FertilityReport(report.sigma, report.target, report.count, report.preimages[::-1])
    assert search.check(i, (flipped, texts[::-1]))
    assert search.check(i, (report, texts[:-1] + ["x"]))


def test_search_check_catches_mutated_machine(search, inverted_pop_rule):
    i = _index(search, "witness")
    assert search.check(i, search.op(i, NULL))


@pytest.fixture
def small_spectrum(monkeypatch):
    monkeypatch.setattr(workloads.SpectrumN9, "N", 7)
    return workloads.SpectrumN9(3, NULL)


def test_spectrum_check_accepts_correct_output(small_spectrum):
    assert small_spectrum.check(0, small_spectrum.op(0, NULL)) == []


def test_spectrum_check_catches_perturbed_count(small_spectrum):
    table, csv = small_spectrum.op(0, NULL)
    pi = small_spectrum.samples[small_spectrum.stream[0]][0]
    table.counts[pi] += 1
    assert small_spectrum.check(0, (table, csv))


def test_spectrum_check_catches_wrong_csv_row(small_spectrum):
    table, csv = small_spectrum.op(0, NULL)
    pi = small_spectrum.samples[small_spectrum.stream[0]][0]
    row = f"{workloads.format_perm(pi)},{table.fertility_of(pi)}\n"
    assert row in csv
    assert small_spectrum.check(0, (table, csv.replace(row, f"{workloads.format_perm(pi)},99\n")))


def test_spectrum_check_catches_mutated_machine(small_spectrum, inverted_pop_rule):
    # Counts still sum to n! and sweep and search agree: the witness check catches it.
    assert small_spectrum.check(3, small_spectrum.op(3, NULL))


def test_verify_check_catches_mutated_machine(monkeypatch, inverted_pop_rule):
    monkeypatch.setattr(workloads.VerifyN7, "MAX_N", 4)
    w = workloads.VerifyN7(1, NULL)
    assert w.check(0, w.op(0, NULL))


def test_verify_check_catches_missing_claim(monkeypatch):
    monkeypatch.setattr(workloads.VerifyN7, "MAX_N", 4)
    w = workloads.VerifyN7(1, NULL)
    results = w.op(0, NULL)
    assert w.check(0, results) == []
    assert w.check(0, results[:-1])


def test_verify_traced_operation_records_each_claim(monkeypatch):
    monkeypatch.setattr(workloads.VerifyN7, "MAX_N", 4)
    rec = Recorder()
    w = workloads.VerifyN7(1, rec)
    assert w.check(0, w.op(0, rec)) == []
    assert {s["calls"] for s in rec.summary().values()} == {1}
    assert set(rec.summary()) == {f"verify.{cid}" for cid in workloads.CLAIM_IDS}
    assert rec.counts["verify.claims_passed"] == [len(workloads.CLAIM_IDS)]


def test_cli_check_catches_wrong_stdout_and_exit():
    w = workloads.CliOneshot(5, NULL)
    out = w.op(2, NULL)
    assert w.check(2, out) == []
    wrong = subprocess.CompletedProcess(out.args, 0, out.stdout + "1234\n", "")
    assert w.check(2, wrong)
    failed = subprocess.CompletedProcess(out.args, 2, "", "error: boom")
    assert w.check(2, failed)


def test_recorder_self_time_parent_and_op():
    rec = Recorder()
    rec.op_id = 4
    with rec.span("outer"):
        with rec.span("inner"):
            sum(range(10000))
    s = rec.summary()
    assert s["outer"]["calls"] == s["inner"]["calls"] == 1
    assert math.isclose(s["outer"]["self_s"], s["outer"]["busy_s"] - s["inner"]["busy_s"])
    assert rec.spans[1][3] == 0 and rec.spans[0][3] is None
    assert rec.spans[0][4] == rec.spans[1][4] == 4


def test_recorder_dump(tmp_path):
    rec = Recorder()
    with rec.span("a"):
        rec.count("a.items", 3)
    rec.dump(tmp_path / "spans.json")
    obj = json.loads((tmp_path / "spans.json").read_text())
    assert obj["spans"][0]["name"] == "a" and obj["counts"] == {"a.items": [3]}


def test_fork_counter_sees_a_process_pool():
    forks = run._ForkCounter()
    preimages("213", (1, 2, 4, 3, 5), jobs=2)
    assert forks.forks >= 1


def test_host_speed_correction_uses_nearby_probes():
    speed = HostSpeed()
    speed.starts = [0.0, 1.0, 10.0, 10.5]
    speed.ends = [0.1, 1.1, 10.2, 10.7]
    speed.took = [REF_PROBE_S, 2 * REF_PROBE_S, REF_PROBE_S / 2, REF_PROBE_S / 2]
    # The probe taken during the interval gives half speed, and its own time
    # is not counted; the probe at 0.0 is near but not during it.
    assert speed.correct(0.5, 1.5) == pytest.approx(0.45)
    # No probe during the interval: those within WINDOW_S give double speed.
    assert speed.correct(9.0, 9.5) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        speed.correct(5.0, 10.0 - 2 * WINDOW_S)  # no probe near


def test_measure_reports_corrected_and_measured_times():
    class Tiny:
        stream = [1, 2, 3]

        def op(self, i, tr):
            return sum(range(10000 * self.stream[i]))

        def check(self, i, out):
            return [] if i != 2 else ["wrong"]

    m = run._measure(Tiny(), NULL, 0.0)
    assert len(m["latencies"]) == len(m["measured"]) == 3
    assert m["failed"] == 1 and m["passes"] == 1 and m["errors"] == ["wrong"]
    assert all(x > 0 for x in m["latencies"])


def test_tail_percentile():
    assert compare.tail(list(range(1, 31))) == (20, 100 * 20 / 30, 10)
    assert compare.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.2 for x in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "gain"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "regression"
    assert compare.verdict(parent, parent[::-1], "lower", 0.1)[0] == "no regression"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"


def test_compare_reads_recorded_runs(tmp_path, capsys):
    config = json.loads(run.CONFIG.read_text())
    config["workloads"] = config["workloads"][:1]
    name = config["workloads"][0]["name"]
    for side, scale in (("parent", 1.0), ("change", 1.0)):
        (tmp_path / side).mkdir()
        with open(tmp_path / side / f"{name}.jsonl", "w") as f:
            for k in range(4):
                metrics = {m["name"]: {"value": scale * (1 + k / 100), "unit": m["unit"]}
                           for m in config["end_to_end"]}
                f.write(json.dumps({"trace": 0, "attempted": 10, "failed": 0,
                                    "metrics": metrics}) + "\n")
    assert compare.compare(tmp_path / "parent", tmp_path / "change", config) == 0
    assert "no regression" in capsys.readouterr().out


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.CONFIG, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "search-l9",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_metric_names_are_unique_and_valid():
    config = json.loads(run.CONFIG.read_text())
    names = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb"} <= set(names)
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert all(Path(p).parts[0] == "benchmarks" for p in config["paths"])
