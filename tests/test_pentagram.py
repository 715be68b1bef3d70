"""Operator-level checks of the five-context pentagram, its eigenvalue reading and the
reference eigenray extraction of tests/oracles.py.

The integer signed-permutation code in kp40.pentagram is checked against the
8x8 NumPy matrices of tests/oracles.py.
"""

import itertools
import random

import numpy as np
import pytest

from kp40.pentagram import (
    Context,
    PauliWord,
    _apply,
    _masks,
    _tally,
    commutes,
    eigen_pattern,
    pentagram_contexts,
    pentagram_unsat,
    pentagram_words,
)
from oracles import (canonical_form, common_eigenrays, pauli_matrix, pentagram_tally_loop,
                     pentagram_words_from_lines, sign_pattern_projector)


def test_ten_distinct_words():
    words = pentagram_words()
    assert len(words) == 10
    assert len({w.factors for w in words}) == 10


def test_the_words_are_the_cached_contexts_own_in_first_appearance_order():
    words = pentagram_words()
    assert words == pentagram_words_from_lines()
    for w in words:
        first = next(c for c in pentagram_contexts() if w in c.words)
        assert any(own is w for own in first.words)
    assert pentagram_unsat() == (0, 4)


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


def test_pentagram_words_are_real_symmetric():
    # what lets _match_pentagram skip the orthogonality pass: rows whose eigenvalues
    # differ under one real symmetric word are orthogonal; and the integer action
    # eigen_pattern applies is that matrix, column by column
    words = pentagram_words()
    assert len(words) == 10
    for w in words:
        m = pauli_matrix(w)
        assert np.isrealobj(m) and np.array_equal(m, m.T), w
        for c, column in enumerate(np.eye(8, dtype=int).tolist()):
            assert _apply(_masks(w), tuple(column)) == tuple(m[:, c]), (w, c)


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


def test_eigen_pattern_reads_each_eigenray_pattern_at_any_scale():
    for c in pentagram_contexts():
        for ray, pattern in common_eigenrays(c):
            for k in (1, -1, 3):
                assert eigen_pattern(c, tuple(k * e for e in ray.entries)) == pattern


@pytest.mark.parametrize("context_no,v,word", [
    (0, (1, 0, 0, 0, 0, 0, 0, 0), "ZXX"),     # ZXX flips bits 2 and 3 of every basis state
    (1, (1, 1, 0, 0, 0, 0, 0, 0), "IIZ"),     # ZII and IZI fix it; IIZ signs its second entry
    (2, (1, 0, 1, 0, 1, 0, 1, 0), None),      # row 17, an eigenvector of all four words
])
def test_eigen_pattern_names_the_first_word_it_fails(context_no, v, word):
    c = pentagram_contexts()[context_no]
    if word is None:
        assert eigen_pattern(c, v) == (1, 1, 1, 1)
        return
    with pytest.raises(ValueError, match=f"^not an eigenvector of {word}$"):
        eigen_pattern(c, v)


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


def _line_masks() -> list[int]:
    index = {w.factors: i for i, w in enumerate(pentagram_words())}
    return [sum(1 << index[w.factors] for w in c.words) for c in pentagram_contexts()]


@pytest.mark.parametrize("parities", list(itertools.product((0, 1), repeat=5)))
def test_tally_matches_the_assignment_loop_for_every_line_parity(parities):
    # each word lies on two lines, so the five parity constraints have rank 4:
    # an even number of odd lines leaves 2^(10-4) solutions, an odd number none
    lines = list(zip(_line_masks(), parities))
    expected = (64, 5) if sum(parities) % 2 == 0 else (0, 4)
    assert _tally(lines, 10) == pentagram_tally_loop(lines, 10) == expected


def test_tally_matches_the_assignment_loop_on_random_lines():
    rng = random.Random(18)
    for _ in range(60):
        n_words = rng.randint(1, 10)
        lines = [(rng.randrange(1 << n_words), rng.randint(0, 1)) for _ in range(rng.randint(0, 6))]
        assert _tally(lines, n_words) == pentagram_tally_loop(lines, n_words), (lines, n_words)
