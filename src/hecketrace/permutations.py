"""Permutations of {1, .., n} in one-line notation.

A permutation is a plain tuple `w` with `w[i-1] = w(i)`; composition is
function composition, so `compose(u, v)` maps i to u(v(i)) and matches the
convention s_1 s_2 = s_1 after s_2 used for reduced words.

>>> compose((1, 3, 2), (2, 1, 3))
(3, 1, 2)
>>> length((3, 1, 2))
2
>>> reduced_word((3, 1, 2))
[2, 1]
"""

from __future__ import annotations

from itertools import permutations as _itertools_permutations

Perm = tuple[int, ...]

__all__ = [
    "Perm",
    "identity",
    "adjacent_transposition",
    "compose",
    "inverse",
    "length",
    "reduced_word",
    "promote",
    "cycles",
    "all_perms",
    "is_perm",
    "format_perm",
]


def is_perm(w) -> bool:
    return isinstance(w, tuple) and sorted(w) == list(range(1, len(w) + 1))


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def adjacent_transposition(m: int, n: int) -> Perm:
    """The simple transposition s_m (swapping m and m+1) in rank n."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"generator index {m} out of range for rank {n}")
    img = list(range(1, n + 1))
    img[m - 1], img[m] = img[m], img[m - 1]
    return tuple(img)


def compose(u: Perm, v: Perm) -> Perm:
    """(u v)(i) = u(v(i)); ranks must be equal."""
    if len(u) != len(v):
        raise ValueError("rank mismatch")
    return tuple(u[j - 1] for j in v)


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, j in enumerate(w, start=1):
        out[j - 1] = i
    return tuple(out)


def length(w: Perm) -> int:
    """Number of inversions, which equals the Coxeter length."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def reduced_word(w: Perm) -> list[int]:
    """A reduced word [a_1, .., a_k] with w = s_{a_1} s_{a_2} .. s_{a_k}
    (composition left to right) and k = length(w).

    Built by repeatedly stripping the first right descent, which lowers
    the length by exactly one at each step.  A swap at i leaves no descent
    before i - 1, so the scan for the next one resumes there: O(n + k)
    steps in all.
    """
    img = list(w)
    rev: list[int] = []
    i = 0
    while i < len(img) - 1:
        if img[i] > img[i + 1]:
            img[i], img[i + 1] = img[i + 1], img[i]
            rev.append(i + 1)
            i = max(i - 1, 0)
        else:
            i += 1
    return rev[::-1]


def promote(w: Perm, n: int) -> Perm:
    """Extend with fixed points to rank n."""
    if n < len(w):
        raise ValueError("cannot demote a permutation")
    return w + tuple(range(len(w) + 1, n + 1))


def cycles(w: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points included, each cycle starting at
    its smallest element, cycles sorted by that element."""
    seen = [False] * len(w)
    out = []
    for start in range(1, len(w) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        j = w[start - 1]
        while j != start:
            cyc.append(j)
            seen[j - 1] = True
            j = w[j - 1]
        out.append(tuple(cyc))
    return out


def all_perms(n: int):
    """All permutations of rank n, in lexicographic order."""
    return [tuple(p) for p in _itertools_permutations(range(1, n + 1))]


def format_perm(w: Perm) -> str:
    return "[" + ",".join(str(i) for i in w) + "]"

