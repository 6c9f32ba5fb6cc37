"""
Preimage enumeration and fertility counts for the SC machine.

The fertility of a target permutation under a pattern is the number of
inputs the machine sends to it.  No closed form is known, so ``preimages``
and ``fertility`` run a depth-first search over input prefixes.  The
machine's pops are forced, so a prefix fixes the stack and the output so
far, and a branch is cut once a popped value differs from the target, or an
entry lands on one that the target lists before it (the stack is LIFO), or
the final drain does not spell the rest of the target.  The bottom of the
stack pops last, so every preimage starts with the target's last entry.
Next entries are tried in ascending order, so preimages come out in
lexicographic order.  ``use_pruning=False`` instead runs the machine on all
of S_n: that brute-force scan is the oracle the search is tested against.

Enumeration is guarded at n <= 11; pass ``force=True`` to go beyond.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import permutations
from typing import Iterable, Iterator, NamedTuple

from . import sc_machine
from .perm_core import Perm, as_pattern, as_perm, format_perm

#: Largest permutation length enumerated without ``force=True``.
MAX_ENUM_N = 11


class EnumerationLimitError(RuntimeError):
    """Raised when an enumeration would exceed the ``MAX_ENUM_N`` guard."""


class FertilityReport(NamedTuple):
    """Result of one preimage search: the count, optionally the sorted list."""

    sigma: Perm
    target: Perm
    count: int
    preimages: tuple[Perm, ...] | None = None


class SpectrumTable(NamedTuple):
    """
    Fertility of every permutation of S_n under one pattern.

    ``counts`` stores only permutations actually hit by the machine; any
    permutation of S_n absent from it has fertility 0 (see
    ``fertility_of``).  ``histogram`` maps each fertility value, including
    0 when non-image permutations exist, to how many permutations attain it.
    """

    sigma: Perm
    n: int
    counts: dict[Perm, int]
    histogram: dict[int, int]

    def __repr__(self) -> str:  # counts has up to n! entries
        return (f"SpectrumTable(sigma={self.sigma!r}, n={self.n!r}, "
                f"histogram={self.histogram!r})")

    def fertility_of(self, pi: Iterable[int]) -> int:
        pi = as_perm(pi)
        if len(pi) != self.n:
            raise ValueError(f"expected a permutation of length {self.n}, got {pi}")
        return self.counts.get(pi, 0)

    def iter_rows(self) -> Iterator[tuple[Perm, int]]:
        """All of S_n in lexicographic order with each fertility (0 included)."""
        for p in permutations(range(1, self.n + 1)):
            yield p, self.counts.get(p, 0)

    def counts_csv(self) -> str:
        lines = ["permutation,fertility"]
        lines.extend(f"{format_perm(p)},{f}" for p, f in self.iter_rows())
        return "\n".join(lines) + "\n"

    def histogram_csv(self) -> str:
        lines = ["fertility,count"]
        lines.extend(f"{f},{c}" for f, c in sorted(self.histogram.items()))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "sigma": format_perm(self.sigma),
            "n": self.n,
            "counts": {format_perm(p): f for p, f in self.iter_rows()},
            "histogram": {str(f): c for f, c in sorted(self.histogram.items())},
        }


def _check_guard(n: int, force: bool) -> None:
    if n > MAX_ENUM_N and not force:
        raise EnumerationLimitError(
            f"permutations of length {n} exceed the enumeration limit "
            f"n <= {MAX_ENUM_N}; pass force=True / --force to go beyond"
        )


def _search(sigma: Perm, target: Perm, head: Perm) -> list[Perm]:
    """
    Every preimage of ``target`` that starts with ``head``, in lexicographic
    order.  ``head`` is the target's last entry, optionally followed by a
    second entry: on a stack of depth <= 1 nothing pops, and any entry may
    sit on the target's last entry, so ``head`` needs no checking.
    """
    rule = sc_machine._pop_rule(sigma)
    where = [0] * (len(target) + 1)
    for i, v in enumerate(target):
        where[v] = i
    found: list[Perm] = []
    tau = list(head)

    def extend(stack: list[int], pos: int, rest: list[int]) -> None:
        if not rest:
            if stack[::-1] == list(target[pos:]):
                found.append(tuple(tau))
            return
        for j, x in enumerate(rest):
            # x forces pops down to stack[i]; each must be the next target entry
            i, p = len(stack) - 1, pos
            while i >= 1 and rule(x, stack[i], stack[i - 1]):
                if stack[i] != target[p]:
                    break
                i, p = i - 1, p + 1
            else:
                # x leaves the stack before the entry it lands on
                if i >= 0 and where[x] > where[stack[i]]:
                    continue
                tau.append(x)
                extend(stack[:i + 1] + [x], p, rest[:j] + rest[j + 1:])
                tau.pop()

    extend(list(head), 0, [x for x in range(1, len(target) + 1) if x not in head])
    return found


def preimages(sigma: Perm | str, pi: Iterable[int], *, use_pruning: bool = True,
              force: bool = False, jobs: int | None = None) -> FertilityReport:
    """
    Enumerate every input the machine maps to ``pi``, sorted
    lexicographically.  ``use_pruning=False`` runs the brute-force scan of
    S_n instead of the search.  ``jobs >= 2`` spreads the search over that
    many worker processes; by default, and for the brute-force scan, it runs
    in this process.

    >>> preimages("213", (1, 2, 4, 3)).preimages
    ((3, 4, 1, 2), (3, 4, 2, 1))
    """
    sigma = as_pattern(sigma)
    pi = as_perm(pi)
    _check_guard(len(pi), force)
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    n = len(pi)
    if not use_pruning:
        rule = sc_machine._pop_rule(sigma)
        run = sc_machine._map_raw
        matches = [tau for tau in permutations(range(1, n + 1)) if run(rule, tau) == pi]
    elif jobs is None or jobs == 1 or n < 3:
        matches = _search(sigma, pi, (pi[-1],))
    else:
        from concurrent.futures import ProcessPoolExecutor

        # One subtree per second entry; ascending entries keep the joined
        # list in lexicographic order.
        heads = [(pi[-1], c) for c in range(1, n + 1) if c != pi[-1]]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            subtrees = pool.map(_search, [sigma] * len(heads), [pi] * len(heads), heads)
            matches = [tau for found in subtrees for tau in found]
    return FertilityReport(sigma, pi, len(matches), tuple(matches))


def fertility(sigma: Perm | str, pi: Iterable[int], *, use_pruning: bool = True,
              force: bool = False, jobs: int | None = None) -> int:
    """
    Number of preimages of ``pi`` under the machine; 0 when ``pi`` is not in
    the image.  Options as for ``preimages``.

    >>> fertility("213", (1, 2, 4, 3))
    2
    """
    return preimages(sigma, pi, use_pruning=use_pruning, force=force, jobs=jobs).count


def spectrum(sigma: Perm | str, n: int, *, force: bool = False) -> SpectrumTable:
    """
    Fertility of every permutation of S_n under ``sigma``, computed by one
    forward sweep: run the machine on every input and tally the outputs.
    """
    sigma = as_pattern(sigma)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_guard(n, force)
    rule = sc_machine._pop_rule(sigma)
    run = sc_machine._map_raw
    counts: dict[Perm, int] = {}
    for tau in permutations(range(1, n + 1)):
        out = run(rule, tau)
        counts[out] = counts.get(out, 0) + 1
    histogram = dict(Counter(counts.values()))
    missed = math.factorial(n) - len(counts)
    if missed:
        histogram[0] = missed
    return SpectrumTable(sigma, n, counts, dict(sorted(histogram.items())))
