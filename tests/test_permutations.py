"""One-line permutation utilities."""

from random import Random

import pytest

from hecketrace.permutations import (
    adjacent_transposition,
    all_perms,
    compose,
    cycles,
    format_perm,
    identity,
    inverse,
    length,
    promote,
    reduced_word,
)


def test_length_examples():
    assert length(identity(4)) == 0
    assert length(adjacent_transposition(1, 2)) == 1
    assert length((3, 2, 1)) == 3  # longest element of S_3: n(n-1)/2


def test_compose_and_inverse():
    rng = Random(7)
    for _ in range(50):
        n = rng.randrange(1, 7)
        w = tuple(rng.sample(range(1, n + 1), n))
        assert compose(w, inverse(w)) == identity(n)
        assert compose(inverse(w), w) == identity(n)


def test_reduced_word_reconstructs():
    rng = Random(11)
    for _ in range(100):
        n = rng.randrange(1, 7)
        w = tuple(rng.sample(range(1, n + 1), n))
        word = reduced_word(w)
        assert len(word) == length(w)
        acc = identity(n)
        for a in word:
            acc = compose(acc, adjacent_transposition(a, n))
        assert acc == w


def reduced_word_by_rescan(w):
    """The oracle of reduced_word: strip the first right descent, then scan
    again from position 0, O(n l(w)) steps."""
    img = list(w)
    rev = []
    while True:
        for i in range(len(img) - 1):
            if img[i] > img[i + 1]:
                img[i], img[i + 1] = img[i + 1], img[i]
                rev.append(i + 1)
                break
        else:
            break
    return rev[::-1]


def test_reduced_word_equals_the_rescan():
    # the same word, not just a reduced one: every permutation up to S_7,
    # then seeded ones up to rank 40
    for n in range(8):
        for w in all_perms(n):
            assert reduced_word(w) == reduced_word_by_rescan(w)
    rng = Random(40)
    for _ in range(200):
        n = rng.randrange(8, 41)
        w = tuple(rng.sample(range(1, n + 1), n))
        assert reduced_word(w) == reduced_word_by_rescan(w)


def test_promotion_is_an_embedding():
    w = (2, 1, 3)
    assert promote(w, 5) == (2, 1, 3, 4, 5)
    assert length(promote(w, 5)) == length(w)
    with pytest.raises(ValueError):
        promote(w, 2)


def test_cycles():
    assert cycles((3, 1, 2, 4)) == [(1, 3, 2), (4,)]
    assert cycles(identity(3)) == [(1,), (2,), (3,)]


def test_all_perms_count():
    assert len(all_perms(4)) == 24
    assert len(set(all_perms(4))) == 24


def test_format_perm():
    assert format_perm((2, 1, 3)) == "[2,1,3]"
