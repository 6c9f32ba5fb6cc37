"""
One-shot reproducibility harness: every checkable claim about the machine,
run over an exhaustive or fixed scope, reported pass/fail.

Claims are registered under stable identifiers (``figure1``, ``lemma5``,
``theorem3``, ...).  ``max_n`` bounds the permutation length of the
exhaustive sweeps; claims with a fixed hypothesis floor (``theorem5``,
``lemma4_order``) always run at n = 6 and 7.  A failed claim always carries
a counterexample with the offending inputs and observed vs expected values.
"""

from __future__ import annotations

import json
from itertools import permutations
from typing import Callable, Iterable, NamedTuple

from . import sc_machine
from .constructions import construct, construct_preimages, expected_fertility
from .fertility import fertility, preimages, spectrum
from .perm_core import PATTERNS, Perm, complement, format_perm, reverse
from .sc_machine import combination_view, sc_trace


class ClaimResult(NamedTuple):
    claim_id: str
    scope: str
    status: str  # "pass" or "fail"
    counterexample: dict[str, str] | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _passed(claim_id: str, scope: str) -> ClaimResult:
    return ClaimResult(claim_id, scope, "pass")


def _failed(claim_id: str, scope: str, **counterexample: str) -> ClaimResult:
    return ClaimResult(claim_id, scope, "fail", counterexample)


def _sweep(max_n: int):
    """All (sigma, tau) pairs with |tau| <= max_n, in fixed order."""
    for sigma in PATTERNS:
        for n in range(1, max_n + 1):
            for tau in permutations(range(1, n + 1)):
                yield sigma, tau


def _claim_figure1(max_n: int) -> ClaimResult:
    scope = "single worked example: sigma=213, tau=52413"
    trace = sc_trace((2, 1, 3), (5, 2, 4, 1, 3))
    sigma_pops = tuple(
        e.value for e in trace.events if e.kind is sc_machine.EventKind.POP_SIGMA
    )
    observed = f"output={format_perm(trace.output)} cro={trace.cro} sigma_pops={sigma_pops}"
    if trace.output == (2, 1, 3, 4, 5) and trace.cro == 2 and sigma_pops == (2, 1):
        return _passed("figure1", scope)
    return _failed("figure1", scope, sigma="213", tau="52413",
                   observed=observed,
                   expected="output=21345 cro=2 sigma_pops=(2, 1)")


def _claim_table_small_213(max_n: int) -> ClaimResult:
    scope = "fertilities of 4321, 1243, 13524, 1234 under sigma=213"
    table = {(4, 3, 2, 1): 1, (1, 2, 4, 3): 2, (1, 3, 5, 2, 4): 3, (1, 2, 3, 4): 4}
    for pi, expected in table.items():
        got = fertility((2, 1, 3), pi)
        if got != expected:
            return _failed("table_small_213", scope, sigma="213", pi=format_perm(pi),
                           observed=str(got), expected=str(expected))
    return _passed("table_small_213", scope)


def _claim_lemma5(max_n: int) -> ClaimResult:
    scope = f"all sigma, all tau in S_n for n <= {max_n}"
    for sigma, tau in _sweep(max_n):
        out = sc_machine._map_raw(sc_machine._pop_rule(sigma), tau)
        if out[-1] != tau[0]:
            return _failed("lemma5", scope, sigma=format_perm(sigma), tau=format_perm(tau),
                           observed=f"last output entry {out[-1]}",
                           expected=f"first input entry {tau[0]}")
    return _passed("lemma5", scope)


def _claim_lemma23(max_n: int) -> ClaimResult:
    suffix_n = min(max_n, 6)
    scope = (f"cro=0 iff output=reverse(input), all sigma, n <= {max_n}; "
             f"post-cro suffix drains in reverse, n <= {suffix_n}")
    for sigma, tau in _sweep(max_n):
        trace = sc_trace(sigma, tau)
        k = trace.cro
        if (k == 0) != (trace.output == reverse(tau)):
            return _failed("lemma23", scope, sigma=format_perm(sigma), tau=format_perm(tau),
                           observed=f"cro={k}, output={format_perm(trace.output)}",
                           expected="cro=0 exactly when output equals reversed input")
        if len(tau) <= suffix_n:
            tail = trace.output[k:]
            comb = combination_view(trace, k)
            if tail != reverse(comb):
                return _failed("lemma23", scope, sigma=format_perm(sigma),
                               tau=format_perm(tau),
                               observed=f"output suffix {tail}",
                               expected=f"reverse of combination {comb}")
    return _passed("lemma23", scope)


def _claim_theorem1(max_n: int) -> ClaimResult:
    scope = f"complement equivariance, all sigma, all tau in S_n for n <= {max_n}"
    for sigma, tau in _sweep(max_n):
        out = sc_machine._map_raw(sc_machine._pop_rule(sigma), tau)
        comp_out = sc_machine._map_raw(
            sc_machine._pop_rule(complement(sigma)), complement(tau)
        )
        if comp_out != complement(out):
            return _failed("theorem1", scope, sigma=format_perm(sigma), tau=format_perm(tau),
                           observed=format_perm(comp_out),
                           expected=format_perm(complement(out)))
    return _passed("theorem1", scope)


def _claim_corollary1(max_n: int) -> ClaimResult:
    top = min(max_n, 6)
    scope = f"fertility invariance under complement, all sigma, exhaustive n <= {top}"
    for n in range(1, top + 1):
        tables = {sigma: spectrum(sigma, n) for sigma in PATTERNS}
        for sigma in PATTERNS:
            mirrored = tables[complement(sigma)]
            for pi, f in tables[sigma].iter_rows():
                g = mirrored.fertility_of(complement(pi))
                if f != g:
                    return _failed("corollary1", scope, sigma=format_perm(sigma),
                                   pi=format_perm(pi), observed=str(f),
                                   expected=f"{g} (fertility of the complement target)")
    return _passed("corollary1", scope)


def _family_claim(claim_id: str, sigmas: tuple[Perm, ...], ns: Iterable[int],
                  scope: str) -> ClaimResult:
    for sigma in sigmas:
        for n in ns:
            target = construct(sigma, n)
            expected_list = construct_preimages(sigma, n)
            report = preimages(sigma, target)
            if report.count != expected_fertility(sigma, n) or \
                    report.preimages != expected_list:
                return _failed(
                    claim_id, scope, sigma=format_perm(sigma), n=str(n),
                    pi=format_perm(target),
                    observed=f"count={report.count}, "
                             f"preimages={[format_perm(p) for p in report.preimages]}",
                    expected=f"count={expected_fertility(sigma, n)}, "
                             f"preimages={[format_perm(p) for p in expected_list]}",
                )
    return _passed(claim_id, scope)


def _claim_theorem3(max_n: int) -> ClaimResult:
    return _family_claim(
        "theorem3", ((1, 2, 3), (3, 2, 1)), range(1, max_n),
        f"witness family fertility n and exact preimage list, "
        f"sigma in {{123, 321}}, n = 1..{max_n - 1}")


def _claim_theorem4(max_n: int) -> ClaimResult:
    return _family_claim(
        "theorem4", ((3, 1, 2), (1, 3, 2)), range(1, max_n),
        f"witness family fertility n and exact preimage list, "
        f"sigma in {{312, 132}}, n = 1..{max_n - 1}")


def _claim_theorem5(max_n: int) -> ClaimResult:
    return _family_claim(
        "theorem5", ((2, 1, 3), (2, 3, 1)), (6, 7),
        "witness family fertility n-1 and exact preimage list, "
        "sigma in {213, 231}, n in {6, 7}")


def _claim_lemma4_order(max_n: int) -> ClaimResult:
    scope = ("first cro-many output entries keep their input order, "
             "sigma in {213, 231}, witness targets, n in {6, 7}")
    for sigma in ((2, 1, 3), (2, 3, 1)):
        for n in (6, 7):
            target = construct(sigma, n)
            for tau in preimages(sigma, target).preimages:
                k = sc_trace(sigma, tau).cro
                positions = [tau.index(target[i]) for i in range(k)]
                if positions != sorted(positions):
                    return _failed(
                        "lemma4_order", scope, sigma=format_perm(sigma),
                        tau=format_perm(tau),
                        observed=f"positions of first {k} output entries: {positions}",
                        expected="strictly increasing positions")
    return _passed("lemma4_order", scope)


_CLAIMS: dict[str, Callable[[int], ClaimResult]] = {
    "figure1": _claim_figure1,
    "table_small_213": _claim_table_small_213,
    "lemma5": _claim_lemma5,
    "lemma23": _claim_lemma23,
    "theorem1": _claim_theorem1,
    "corollary1": _claim_corollary1,
    "theorem3": _claim_theorem3,
    "theorem4": _claim_theorem4,
    "theorem5": _claim_theorem5,
    "lemma4_order": _claim_lemma4_order,
}

CLAIM_IDS = tuple(_CLAIMS)


def run_claims(max_n: int, selection: Iterable[str] | None = None) -> tuple[ClaimResult, ...]:
    """
    Evaluate the selected claims (all of them by default) with exhaustive
    sweeps bounded by ``max_n``.  Results come back in registry order.
    """
    if not 3 <= max_n <= 9:
        raise ValueError(f"max_n must be in 3..9, got {max_n}")
    if selection is None:
        chosen = set(CLAIM_IDS)
    else:
        chosen = set(selection)
        unknown = chosen - set(CLAIM_IDS)
        if unknown:
            raise ValueError(
                f"unknown claim id(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(CLAIM_IDS)}")
    return tuple(fn(max_n) for cid, fn in _CLAIMS.items() if cid in chosen)


def format_report(results: Iterable[ClaimResult]) -> str:
    """Human-readable table, one line per claim, counterexamples indented."""
    results = list(results)
    width = max((len(r.claim_id) for r in results), default=0)
    lines = []
    for r in results:
        lines.append(f"{r.claim_id.ljust(width)}  {r.status.upper():4}  {r.scope}")
        if r.counterexample:
            for key, val in r.counterexample.items():
                lines.append(f"{'':{width}}    {key}: {val}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results)} claims: {len(results) - failed} passed, {failed} failed")
    return "\n".join(lines)


def results_json(results: Iterable[ClaimResult]) -> str:
    records = [
        {"claim_id": r.claim_id, "scope": r.scope, "status": r.status,
         "counterexample": r.counterexample}
        for r in results
    ]
    return json.dumps(records, indent=2)
