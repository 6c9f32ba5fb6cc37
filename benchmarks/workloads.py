"""
The four benchmark workloads.  Each drives scsort from outside through its
public functions, as a closed loop with one client.

A workload is built from a seed (its set-up: input generation, oracle
preparation and warm-up) and then exposes a fixed cycle of operations.
``op(i, tr)`` runs operation ``i`` of the cycle and returns its output;
``check(i, out)`` compares that output with an oracle and returns a list of
failure messages, empty when the output is correct.  ``tr`` is a span
recorder (``spans.Recorder``) or ``spans.NULL``: every call into a layer's
public function is wrapped in a span named ``<module>.<function>``.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
# Benchmark the checkout's own sources, never an installed copy.
sys.path.insert(0, str(SRC))

from scsort import (  # noqa: E402
    CLAIM_IDS,
    PATTERNS,
    construct,
    construct_preimages,
    expected_fertility,
    fertility,
    format_perm,
    format_report,
    format_trace,
    preimages,
    run_claims,
    sc_map,
    sc_trace,
    spectrum,
)


def _random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, n + 1), n))


def _sigma_text(sigma: tuple[int, ...]) -> str:
    return "".join(map(str, sigma))


def _lex_rank(p: tuple[int, ...]) -> int:
    """Position of ``p`` in the lexicographic order of S_n, from 0."""
    rest = sorted(p)
    rank = 0
    for i, x in enumerate(p):
        j = rest.index(x)
        rank += j * math.factorial(len(p) - 1 - i)
        rest.pop(j)
    return rank


class SearchL9:
    """
    One operation: ``preimages(sigma, target)`` on a length-9 target, then
    ``format_perm`` on each preimage.  Each round of the cycle visits every
    pattern with three kinds of target: the witness ``construct(sigma, 8)``,
    the image ``sc_map(sigma, tau)`` of a seeded random tau, and a seeded
    uniform random permutation (usually outside the image).
    """

    name = "search-l9"
    N = 9
    # Rounds over the patterns per cycle: 54 targets, about 6 s on a 2.1 GHz
    # Xeon, so that a run of whole cycles ends close to its --seconds.
    ROUNDS = 3

    def __init__(self, seed: int, tr) -> None:
        rng = random.Random(seed)
        self.witness = {}
        for sigma in PATTERNS:
            with tr.span("constructions.construct"):
                target = construct(sigma, self.N - 1)
            with tr.span("constructions.construct_preimages"):
                pres = construct_preimages(sigma, self.N - 1)
            self.witness[sigma] = (target, pres)
        # (sigma, kind, target, tau known to map to target or None)
        self.stream: list[tuple] = []
        for sigma in PATTERNS * self.ROUNDS:
            tau = _random_perm(rng, self.N)
            self.stream += [
                (sigma, "witness", self.witness[sigma][0], None),
                (sigma, "image", sc_map(sigma, tau), tau),
                (sigma, "random", _random_perm(rng, self.N), None),
            ]
        self.found: dict[int, int] = {}
        for sigma in PATTERNS:
            preimages(sigma, construct(sigma, 6))

    def op(self, i: int, tr):
        sigma, _, target, _ = self.stream[i]
        with tr.span("fertility.preimages"):
            report = preimages(sigma, target)
        tr.count("fertility.preimages.found", len(report.preimages))
        texts = []
        for p in report.preimages:
            with tr.span("perm_core.format_perm"):
                texts.append(format_perm(p))
        return report, texts

    def check(self, i: int, out) -> list[str]:
        sigma, kind, target, tau = self.stream[i]
        report, texts = out
        pres = report.preimages
        where = f"{_sigma_text(sigma)} {kind} {format_perm(target)}"
        errors = []
        if kind == "witness" and pres != self.witness[sigma][1]:
            errors.append(f"{where}: list differs from construct_preimages")
        if tau is not None and tau not in pres:
            errors.append(f"{where}: seeded tau {format_perm(tau)} missing")
        if any(a >= b for a, b in zip(pres, pres[1:])):
            errors.append(f"{where}: list not strictly ascending")
        if report.count != len(pres):
            errors.append(f"{where}: count {report.count} != {len(pres)} listed")
        for p in pres:
            if sc_map(sigma, p) != target or p[0] != target[-1]:
                errors.append(f"{where}: {p} does not map back or breaks Lemma 5")
        if texts != ["".join(map(str, p)) for p in pres]:
            errors.append(f"{where}: format_perm output wrong")
        self.found[i] = len(pres)
        return errors

    def properties(self) -> dict:
        counts = list(self.found.values())
        return {
            "targets_per_cycle": len(self.stream),
            "in_image_share": sum(1 for c in counts if c) / len(counts),
            "random_in_image_share": sum(
                1 for i in self.found if self.stream[i][1] == "random" and self.found[i]
            ) / sum(1 for s in self.stream if s[1] == "random"),
            "fertility_per_cycle": sum(counts),
        }


class SpectrumN9:
    """
    One operation: ``spectrum(sigma, 9)`` and then ``counts_csv()``, one
    pattern after another.  The seed picks the targets of the search
    cross-check, which runs outside the timed region.  The witness target
    ``construct(sigma, 8)``, whose fertility is known in closed form, is
    checked too, so that a machine fault shared by sweep and search shows.
    """

    name = "spectrum-n9"
    N = 9
    SAMPLE = 2  # cross-checked targets per operation

    def __init__(self, seed: int, tr) -> None:
        rng = random.Random(seed)
        self.stream = list(PATTERNS)
        self.samples = {
            sigma: [sc_map(sigma, _random_perm(rng, self.N))]
            + [_random_perm(rng, self.N) for _ in range(self.SAMPLE - 1)]
            for sigma in PATTERNS
        }
        self.witness = {
            sigma: (construct(sigma, self.N - 1), expected_fertility(sigma, self.N - 1))
            for sigma in PATTERNS
        }
        self.image_ratio: dict[str, float] = {}
        for sigma in PATTERNS:
            spectrum(sigma, 6).counts_csv()

    def op(self, i: int, tr):
        sigma = self.stream[i]
        with tr.span("fertility.spectrum"):
            table = spectrum(sigma, self.N)
        tr.count("fertility.spectrum.inputs", math.factorial(self.N))
        tr.count("fertility.spectrum.image_size", len(table.counts))
        with tr.span("fertility.counts_csv"):
            csv = table.counts_csv()
        tr.count("fertility.counts_csv.rows", math.factorial(self.N))
        return table, csv

    def check(self, i: int, out) -> list[str]:
        sigma = self.stream[i]
        table, csv = out
        total = math.factorial(self.N)
        where = f"spectrum {_sigma_text(sigma)} n={self.N}"
        errors = []
        if sum(table.counts.values()) != total:
            errors.append(f"{where}: counts sum to {sum(table.counts.values())}, not {total}")
        if sum(table.histogram.values()) != total or \
                table.histogram.get(0, 0) != total - len(table.counts):
            errors.append(f"{where}: histogram inconsistent with counts")
        # The CSV is searched in place: splitting it into rows would add to peak RSS.
        rows = csv.count("\n") - 1
        if rows != total or not csv.startswith("permutation,fertility\n"):
            errors.append(f"{where}: CSV has {rows} rows, not {total}")
        witness, known = self.witness[sigma]
        if table.fertility_of(witness) != known:
            errors.append(f"{where}: witness {format_perm(witness)} has fertility "
                          f"{table.fertility_of(witness)}, not {known}")
        for pi in self.samples[sigma]:
            searched = fertility(sigma, pi)
            if table.fertility_of(pi) != searched:
                errors.append(f"{where}: fertility_of({format_perm(pi)}) = "
                              f"{table.fertility_of(pi)}, search gives {searched}")
            at = csv.find(f"\n{format_perm(pi)},{searched}\n")
            if at < 0 or csv.count("\n", 0, at + 1) != _lex_rank(pi) + 1:
                errors.append(f"{where}: CSV row of {format_perm(pi)} wrong or misplaced")
        self.image_ratio[_sigma_text(sigma)] = len(table.counts) / total
        return errors

    def properties(self) -> dict:
        return {"image_ratio": dict(sorted(self.image_ratio.items()))}


class VerifyN7:
    """
    One operation: ``run_claims(7)``, all ten claims, the CLI default.  The
    traced run calls ``run_claims(7, [cid])`` once per claim id instead, so
    each claim gets its own span.  The operation has no seeded input.
    """

    name = "verify-n7"
    MAX_N = 7

    def __init__(self, seed: int, tr) -> None:
        self.stream = [self.MAX_N]
        run_claims(4)

    def op(self, i: int, tr):
        if not tr.enabled:
            return run_claims(self.MAX_N)
        results = []
        for cid in CLAIM_IDS:
            with tr.span(f"verify.{cid}"):
                results += run_claims(self.MAX_N, [cid])
        tr.count("verify.claims_passed", sum(r.passed for r in results))
        return tuple(results)

    def check(self, i: int, out) -> list[str]:
        errors = [f"claim {r.claim_id} failed: {r.counterexample}" for r in out if not r.passed]
        if tuple(r.claim_id for r in out) != CLAIM_IDS:
            errors.append(f"claims run {[r.claim_id for r in out]}, expected all ten")
        return errors

    def properties(self) -> dict:
        return {"claims": len(CLAIM_IDS), "max_n": self.MAX_N}


class CliOneshot:
    """
    One operation: one ``python -m scsort.cli`` subprocess, run to its end
    before the next starts.  A cycle runs four commands per pattern: ``map
    --trace``, ``construct --preimages``, ``fertility --list`` at length 7
    and ``verify --max-n 4``.  Each command's expected stdout is computed
    in-process during set-up.
    """

    name = "cli-oneshot"

    def __init__(self, seed: int, tr) -> None:
        rng = random.Random(seed)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        verify_text = format_report(run_claims(4)) + "\n"
        self.stream: list[tuple[list[str], str]] = []
        for sigma in PATTERNS:
            s = _sigma_text(sigma)
            tau = _random_perm(rng, 9)
            n = rng.randint(6, 9)
            target7 = sc_map(sigma, _random_perm(rng, 7))
            self.stream += [
                (["map", "--sigma", s, "--perm", format_perm(tau), "--trace"],
                 format_trace(sc_trace(sigma, tau)) + "\n"),
                (["construct", "--sigma", s, "--n", str(n), "--preimages"],
                 "".join(format_perm(p) + "\n"
                         for p in (construct(sigma, n),) + construct_preimages(sigma, n))),
                (["fertility", "--sigma", s, "--perm", format_perm(target7), "--list"],
                 "".join(format_perm(p) + "\n" for p in preimages(sigma, target7).preimages)),
                (["verify", "--max-n", "4"], verify_text),
            ]
        # Warm-up: one CLI run imports every module and writes the byte-code cache.
        self.run_cli(self.stream[0][0])

    def run_cli(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "scsort.cli", *args], cwd=REPO,
                              env=self.env, capture_output=True, text=True, timeout=60)

    def op(self, i: int, tr):
        args = self.stream[i][0]
        with tr.span(f"cli.{args[0]}"):
            return self.run_cli(args)

    def check(self, i: int, out) -> list[str]:
        args, expected = self.stream[i]
        if out.returncode != 0:
            return [f"scsort {' '.join(args)}: exit {out.returncode}: {out.stderr.strip()}"]
        if out.stdout != expected:
            return [f"scsort {' '.join(args)}: stdout differs from the library's result"]
        return []

    def properties(self) -> dict:
        return {"commands_per_cycle": len(self.stream)}

    def probe(self, code: str, reps: int) -> list[float]:
        """Wall times of ``python -c code``, for interpreter and import cost."""
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=REPO, env=self.env,
                           check=True, capture_output=True, timeout=60)
            times.append(time.perf_counter() - t0)
        return times


WORKLOADS = {w.name: w for w in (SearchL9, SpectrumN9, VerifyN7, CliOneshot)}
