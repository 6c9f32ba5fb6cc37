"""
Witness families: for every pattern, targets of length n+1 with known
fertility, plus their explicit preimage lists.

Directly built families (fertility in parentheses):

- pattern 123: target n (n-1) ... 2 1 (n+1)                    (n, any n >= 1)
- pattern 312: target 1 2 ... (n-1) (n+1) n                    (n, any n >= 1)
- pattern 213: target 1 2 ... (n-4) (n-2) (n-3) (n-1) n (n+1)  (n-1, n >= 6)

The remaining three families are the entrywise complements of these, under
the complementary pattern (321, 132, 231 respectively): complementing both
the pattern and the input commutes with the machine, so fertilities carry
over unchanged.

``small_witness`` extends the 213/231 families below their n >= 6 floor with
four fixed small targets of fertilities 1..4, so that every positive integer
has a witness under every pattern.
"""

from __future__ import annotations

from typing import NamedTuple

from .perm_core import Perm, as_pattern, complement

#: Smallest admissible n per pattern.
MIN_N = {
    (1, 2, 3): 1, (3, 2, 1): 1,
    (3, 1, 2): 1, (1, 3, 2): 1,
    (2, 1, 3): 6, (2, 3, 1): 6,
}

# Complement-defined families and the directly built family each mirrors.
_MIRROR_OF = {(3, 2, 1): (1, 2, 3), (1, 3, 2): (3, 1, 2), (2, 3, 1): (2, 1, 3)}

# Fixed fertility-f targets for f = 1..4 under pattern 213; the 231 table is
# their entrywise complement.
_SMALL_213 = {
    1: (4, 3, 2, 1),
    2: (1, 2, 4, 3),
    3: (1, 3, 5, 2, 4),
    4: (1, 2, 3, 4),
}


def min_n(sigma: Perm | str) -> int:
    return MIN_N[as_pattern(sigma)]


def expected_fertility(sigma: Perm | str, n: int) -> int:
    """Fertility of ``construct(sigma, n)``: n-1 for patterns 213/231, n otherwise."""
    sigma = as_pattern(sigma)
    _check_n(sigma, n)
    return n - 1 if sigma in ((2, 1, 3), (2, 3, 1)) else n


def _check_n(sigma: Perm, n: int) -> None:
    if n < MIN_N[sigma]:
        raise ValueError(
            f"the witness family for pattern {''.join(map(str, sigma))} "
            f"requires n >= {MIN_N[sigma]}, got {n}"
        )


def construct(sigma: Perm | str, n: int) -> Perm:
    """
    The length-(n+1) witness target for ``sigma``.

    >>> construct("123", 3)
    (3, 2, 1, 4)
    >>> construct("213", 6)
    (1, 2, 4, 3, 5, 6, 7)
    """
    sigma = as_pattern(sigma)
    _check_n(sigma, n)
    if sigma == (1, 2, 3):
        return tuple(range(n, 0, -1)) + (n + 1,)
    if sigma == (3, 1, 2):
        return tuple(range(1, n)) + (n + 1, n)
    if sigma == (2, 1, 3):
        return tuple(range(1, n - 3)) + (n - 2, n - 3, n - 1, n, n + 1)
    target = complement(construct(_MIRROR_OF[sigma], n))
    if sigma == (3, 2, 1):
        assert target == tuple(range(2, n + 2)) + (1,)
    elif sigma == (1, 3, 2):
        assert target == tuple(range(n + 1, 2, -1)) + (1, 2)
    return target


def construct_preimages(sigma: Perm | str, n: int) -> tuple[Perm, ...]:
    """
    The explicit, lexicographically sorted preimage list of
    ``construct(sigma, n)``.

    >>> construct_preimages("123", 3)
    ((4, 1, 2, 3), (4, 3, 1, 2), (4, 3, 2, 1))
    """
    sigma = as_pattern(sigma)
    _check_n(sigma, n)
    if sigma == (1, 2, 3):
        # One input per sigma-pop count m: a descending run n..(n-m+1) after
        # the leading n+1, then the rest ascending.
        pres = [
            (n + 1,) + tuple(range(n, n - m, -1)) + tuple(range(1, n - m + 1))
            for m in range(n)
        ]
    elif sigma == (3, 1, 2):
        pres = [
            (n,) + tuple(range(m, 0, -1)) + (n + 1,) + tuple(range(n - 1, m, -1))
            for m in range(n)
        ]
    elif sigma == (2, 1, 3):
        single = (n + 1,) + tuple(range(1, n - 3)) + (n - 2, n, n - 3, n - 1)
        base = (n + 1,) + tuple(range(1, n - 3)) + (n - 2, n - 1, n - 3)
        # n slides through every slot after the leading entry and before n-1.
        pres = [single] + [base[:p] + (n,) + base[p:] for p in range(1, n - 1)]
    else:
        pres = [complement(t) for t in construct_preimages(_MIRROR_OF[sigma], n)]
    return tuple(sorted(pres))


def small_witness(sigma: Perm | str, f: int) -> Perm:
    """
    A permutation whose fertility under ``sigma`` is exactly ``f``, for any
    f >= 1.
    """
    sigma = as_pattern(sigma)
    if f < 1:
        raise ValueError(f"fertility must be a positive integer, got {f}")
    if sigma == (2, 1, 3):
        return _SMALL_213[f] if f <= 4 else construct(sigma, f + 1)
    if sigma == (2, 3, 1):
        return complement(_SMALL_213[f]) if f <= 4 else construct(sigma, f + 1)
    return construct(sigma, f)


class ConstructionFamily(NamedTuple):
    """One pattern's witness family: its floor, targets, and fertilities."""

    sigma: Perm
    min_n: int

    def target(self, n: int) -> Perm:
        return construct(self.sigma, n)

    def expected_fertility(self, n: int) -> int:
        return expected_fertility(self.sigma, n)

    def preimage_list(self, n: int) -> tuple[Perm, ...]:
        return construct_preimages(self.sigma, n)


FAMILIES = {p: ConstructionFamily(p, MIN_N[p]) for p in MIN_N}
