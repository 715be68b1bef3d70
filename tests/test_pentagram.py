"""Operator-level checks of the five-context pentagram and its eigenray extraction.

The integer signed-permutation code in kp40.pentagram is checked against the
8x8 NumPy matrices of tests/oracles.py.
"""

import itertools

import numpy as np
import pytest

from kp40.pentagram import (
    Context,
    PauliWord,
    commutes,
    common_eigenrays,
    pentagram_contexts,
    pentagram_unsat,
    pentagram_words,
)
from kp40.rays import canonical_form
from oracles import pauli_matrix, sign_pattern_projector


def test_ten_distinct_words():
    words = pentagram_words()
    assert len(words) == 10
    assert len({w.factors for w in words}) == 10


def test_each_word_on_exactly_two_lines():
    count: dict[str, int] = {}
    for c in pentagram_contexts():
        for w in c.words:
            count[w.factors] = count.get(w.factors, 0) + 1
    assert set(count.values()) == {2}


def test_contexts_commute_internally():
    for c in pentagram_contexts():
        for a, b in itertools.combinations(c.words, 2):
            assert commutes(a, b)


def test_one_context_has_negative_product():
    signs = [c.product_sign for c in pentagram_contexts()]
    assert sorted(signs) == [-1, 1, 1, 1, 1]


def test_product_sign_matches_matrix_product():
    for c in pentagram_contexts():
        m = np.eye(8)
        for w in c.words:
            m = m @ pauli_matrix(w)
        assert np.array_equal(m, c.product_sign * np.eye(8))


def test_pauli_matrix_squares_to_identity():
    for w in pentagram_words():
        m = pauli_matrix(w)
        assert np.array_equal(m @ m, np.eye(8))


def test_bad_word_rejected():
    with pytest.raises(ValueError):
        PauliWord("XY")
    with pytest.raises(ValueError):
        PauliWord("XQZ")


def test_sign_pattern_projectors_resolve_identity():
    # The 8 admissible patterns of a context give orthogonal rank-1 projectors
    # summing to 16 * identity (each pattern projector is 16x the true one).
    for c in pentagram_contexts():
        rays = common_eigenrays(c)
        assert len(rays) == 8
        total = np.zeros((8, 8), dtype=np.int64)
        for _, pattern in rays:
            total = total + sign_pattern_projector(c, pattern)
        assert np.array_equal(total, 16 * np.eye(8, dtype=np.int64))


def test_eigenrays_are_simultaneous_eigenvectors():
    for c in pentagram_contexts():
        for ray, pattern in common_eigenrays(c):
            v = np.array(ray.entries)
            for w, s in zip(c.words, pattern):
                assert np.array_equal(pauli_matrix(w) @ v, s * v)


def test_eigenrays_match_the_matrix_oracle():
    # The oracle's projector is nonzero for exactly the returned patterns, each
    # is 16x a rank-one projector, and its first nonzero column is the ray.
    for c in pentagram_contexts():
        rays = {pattern: ray for ray, pattern in common_eigenrays(c)}
        for pattern in itertools.product((1, -1), repeat=4):
            p16 = sign_pattern_projector(c, pattern)
            assert np.any(p16) == (pattern in rays)
            if pattern not in rays:
                continue
            assert np.array_equal(p16, p16.T)
            assert np.array_equal(p16 @ p16, 16 * p16)
            assert int(np.trace(p16)) == 16
            col = next(p16[:, j] for j in range(8) if np.any(p16[:, j]))
            assert canonical_form(tuple(int(x) for x in col)) == rays[pattern]


def _corrupted(context_no: int, position: int | None, word: str | None) -> Context:
    c = pentagram_contexts()[context_no]
    if position is None:    # flip the product sign
        return Context(words=c.words, product_sign=-c.product_sign)
    words = list(c.words)
    words[position] = PauliWord(word)
    return Context(words=tuple(words), product_sign=c.product_sign)


@pytest.mark.parametrize("context_no,position,word", [
    (0, None, None),     # the -identity line given sign +1
    (1, None, None),     # a +identity line given sign -1
    (1, 2, "IIX"),       # IIX anticommutes with ZZZ
    (1, 3, "ZZI"),       # commutes, but the product is IIZ, not +/-identity
    (4, 0, "XII"),       # XII anticommutes with ZXX
])
def test_corrupted_context_raises(context_no, position, word):
    with pytest.raises(ArithmeticError):
        common_eigenrays(_corrupted(context_no, position, word))


def test_inadmissible_pattern_annihilates():
    # A sign pattern whose product disagrees with the context sign projects to zero.
    for c in pentagram_contexts():
        bad = (1, 1, 1, 1) if c.product_sign == -1 else (1, 1, 1, -1)
        assert not np.any(sign_pattern_projector(c, bad))


def test_unsat_certificate():
    satisfying, best = pentagram_unsat()
    assert satisfying == 0
    assert best == 4
