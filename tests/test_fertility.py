"""Preimage enumeration, fertility counts, and full-spectrum tables."""

from __future__ import annotations

import json
import math
import os
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsort import (
    MAX_ENUM_N,
    PATTERNS,
    EnumerationLimitError,
    complement,
    construct,
    construct_preimages,
    fertility,
    preimages,
    sc_machine,
    sc_map,
    spectrum,
)

from helpers import all_perms, check_report


# --- known preimage sets ---

def test_known_counts_for_213():
    assert fertility("213", (4, 3, 2, 1)) == 1
    assert fertility("213", (1, 2, 4, 3)) == 2
    assert fertility("213", (1, 3, 5, 2, 4)) == 3
    assert fertility("213", (1, 2, 3, 4)) == 4


def test_known_preimage_lists():
    assert preimages("213", (1, 2, 4, 3)).preimages == ((3, 4, 1, 2), (3, 4, 2, 1))
    assert preimages("123", (3, 2, 1, 4)).preimages == (
        (4, 1, 2, 3), (4, 3, 1, 2), (4, 3, 2, 1))
    assert preimages("312", (1, 2, 4, 3)).preimages == (
        (3, 1, 4, 2), (3, 2, 1, 4), (3, 4, 2, 1))


def test_singleton_is_its_own_preimage():
    for sigma in PATTERNS:
        report = preimages(sigma, (1,))
        assert report.preimages == ((1,),)
        assert report.count == 1


def test_fertility_on_s2():
    # the machine on S_2 is the reverse bijection, so each target has the
    # one preimage that reverses onto it
    assert sc_map("123", (1, 2)) == (2, 1)
    assert sc_map("123", (2, 1)) == (1, 2)
    assert fertility("123", (1, 2)) == 1
    assert preimages("123", (1, 2)).preimages == ((2, 1),)


def test_zero_fertility_is_reported():
    # 213 is not an image point of the 213-machine on S_3 (see spectrum test)
    report = preimages("213", (2, 1, 3))
    assert report.count == 0
    assert report.preimages == ()
    assert fertility("213", (2, 1, 3)) == 0


def test_reports_satisfy_invariants():
    for sigma in PATTERNS:
        for pi in all_perms(4):
            check_report(preimages(sigma, pi))


# --- the search agrees with the brute-force scan ---

def test_pruned_matches_unpruned_small():
    for sigma in PATTERNS:
        for n in range(1, 5):
            for pi in all_perms(n):
                pruned = preimages(sigma, pi, use_pruning=True)
                full = preimages(sigma, pi, use_pruning=False)
                assert pruned == full


def test_search_matches_forward_sweep_up_to_s6():
    # one machine run per input gives every preimage list of S_n at once
    for sigma in PATTERNS:
        for n in range(1, 7):
            swept: dict = {}
            for tau in all_perms(n):
                swept.setdefault(sc_map(sigma, tau), []).append(tau)
            for pi in all_perms(n):
                assert preimages(sigma, pi).preimages == tuple(swept.get(pi, ()))


@st.composite
def _targets(draw):
    n = draw(st.integers(1, 8))
    return tuple(draw(st.permutations(range(1, n + 1))))


@settings(max_examples=40, deadline=None, database=None)
@given(sigma=st.sampled_from(PATTERNS), pi=_targets())
def test_search_matches_brute_force_property(sigma, pi):
    assert preimages(sigma, pi) == preimages(sigma, pi, use_pruning=False)
    assert fertility(sigma, pi) == fertility(sigma, pi, use_pruning=False)


def test_search_recovers_witness_preimages():
    for sigma in PATTERNS:
        for n in range(8, 11):
            assert preimages(sigma, construct(sigma, n)).preimages == \
                construct_preimages(sigma, n)


def test_search_looks_up_the_pop_rule_per_call(monkeypatch):
    original = sc_machine._pop_rule

    def inverted(sigma):
        rule = original(sigma)
        return lambda pending, top, second: not rule(pending, top, second)

    for sigma in PATTERNS:
        target = construct(sigma, 6)
        honest = preimages(sigma, target)
        monkeypatch.setattr(sc_machine, "_pop_rule", inverted)
        mutated = preimages(sigma, target)
        assert mutated == preimages(sigma, target, use_pruning=False)
        assert mutated != honest
        monkeypatch.undo()


def test_default_search_starts_no_process():
    forks = []
    os.register_at_fork(after_in_parent=lambda: forks.append(1))
    assert fertility("213", construct("213", 10)) == 9
    assert forks == []


def test_parallel_scan_matches_serial():
    for sigma, pi in [((3, 1, 2), (1, 2, 4, 3)), ((2, 1, 3), (1, 3, 5, 2, 4))]:
        serial = preimages(sigma, pi, jobs=1)
        parallel = preimages(sigma, pi, jobs=2)
        assert serial == parallel
        assert preimages(sigma, pi, jobs=2, use_pruning=False) == \
            preimages(sigma, pi, jobs=1, use_pruning=False)
        assert fertility(sigma, pi, jobs=2) == serial.count


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        preimages("123", (1, 2, 3), jobs=0)


# --- guard ---

def test_enumeration_guard():
    big = tuple(range(1, MAX_ENUM_N + 2))
    with pytest.raises(EnumerationLimitError, match="force"):
        preimages("123", big)
    with pytest.raises(EnumerationLimitError):
        fertility("123", big)
    with pytest.raises(EnumerationLimitError):
        spectrum("123", MAX_ENUM_N + 1)
    # force only overrides the guard, small runs behave identically
    assert fertility("123", (1, 2, 3), force=True) == fertility("123", (1, 2, 3))


def test_spectrum_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        spectrum("123", 0)


# --- spectrum ---

def test_spectrum_tiny_histograms():
    for sigma in PATTERNS:
        assert spectrum(sigma, 1).histogram == {1: 1}
        assert spectrum(sigma, 2).histogram == {1: 2}


def test_spectrum_on_s3_under_213():
    table = spectrum("213", 3)
    assert table.fertility_of((1, 2, 3)) == 2
    assert table.fertility_of((2, 1, 3)) == 0
    assert table.histogram == {0: 1, 1: 4, 2: 1}


def test_spectrum_cross_checks_known_counts():
    table = spectrum("213", 4)
    assert table.fertility_of((4, 3, 2, 1)) == 1
    assert table.fertility_of((1, 2, 4, 3)) == 2
    assert table.fertility_of((1, 2, 3, 4)) == 4


def test_spectrum_total_mass_is_factorial():
    for sigma in PATTERNS:
        for n in range(1, 7):
            table = spectrum(sigma, n)
            assert sum(table.counts.values()) == math.factorial(n)
            assert sum(table.histogram.values()) == math.factorial(n)
            assert sum(f * c for f, c in table.histogram.items()) == math.factorial(n)


def test_spectrum_agrees_with_fertility_on_samples():
    rng = random.Random(2024)
    for sigma in PATTERNS:
        for n in range(1, 7):
            table = spectrum(sigma, n)
            for _ in range(100):
                pi = tuple(rng.sample(range(1, n + 1), n))
                assert table.fertility_of(pi) == fertility(sigma, pi)


def test_fertility_invariant_under_complement():
    for sigma in PATTERNS:
        for n in range(1, 6):
            table = spectrum(sigma, n)
            mirrored = spectrum(complement(sigma), n)
            for pi in all_perms(n):
                assert table.fertility_of(pi) == mirrored.fertility_of(complement(pi))


def test_fertility_of_validates_length():
    table = spectrum("123", 3)
    with pytest.raises(ValueError):
        table.fertility_of((1, 2))


# --- exports ---

def test_spectrum_csv_golden():
    table = spectrum("213", 2)
    assert table.counts_csv() == "permutation,fertility\n12,1\n21,1\n"
    assert table.histogram_csv() == "fertility,count\n1,2\n"


def test_spectrum_csv_includes_zero_rows():
    table = spectrum("213", 3)
    lines = table.counts_csv().splitlines()
    assert lines[0] == "permutation,fertility"
    assert len(lines) == 1 + 6
    assert "213,0" in lines


def test_spectrum_json_object():
    obj = spectrum("213", 2).to_json_obj()
    assert obj == {
        "sigma": "213",
        "n": 2,
        "counts": {"12": 1, "21": 1},
        "histogram": {"1": 2},
    }
    json.dumps(obj)


def test_spectrum_rows_cover_sn_in_lex_order():
    table = spectrum("321", 3)
    rows = list(table.iter_rows())
    assert [p for p, _ in rows] == sorted(permutations((1, 2, 3)))
    assert sum(f for _, f in rows) == 6
