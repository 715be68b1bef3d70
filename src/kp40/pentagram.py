"""Mermin's pentagram of ten three-qubit observables and its five commuting lines.

Each observable is a tensor word over {I, X, Z} (Y never occurs), so it acts
on the 8 basis states as a signed permutation: X flips a bit and Z signs it.
A word is therefore a pair of 3-bit masks on the basis index, qubit 1 the most
significant bit (the Kronecker order).  The five lines pairwise commute, four
multiply to +identity and one to -identity, and the common eigenvectors of
the lines are the 40 rays of the Kernaghan-Peres set.  All arithmetic here is
on Python integers.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache, reduce
from operator import and_, xor
from typing import NamedTuple

from .rays import DIM

FACTORS = ("I", "X", "Z")

Vector = tuple[int, ...]


class PauliWord(namedtuple("PauliWord", "factors")):
    """Three-factor tensor word, e.g. "ZXX"; "ZII" is the single-qubit z on qubit 1."""

    __slots__ = ()

    def __new__(cls, factors: str) -> PauliWord:
        if len(factors) != 3 or any(f not in FACTORS for f in factors):
            raise ValueError(f"invalid word {factors!r}: need 3 factors from {FACTORS}")
        return super().__new__(cls, factors)

    def __str__(self) -> str:
        return self.factors


class Context(NamedTuple):
    """Four pairwise-commuting words whose matrix product is product_sign * identity."""

    words: tuple[PauliWord, PauliWord, PauliWord, PauliWord]
    product_sign: int


def commutes(w1: PauliWord, w2: PauliWord) -> bool:
    """True iff the number of positions holding one X against one Z is even."""
    anti = sum(1 for a, b in zip(w1.factors, w2.factors) if a != "I" and b != "I" and a != b)
    return anti % 2 == 0


# _SIGNS[zmask][c] = (-1)^popcount(c & zmask), the sign a word gives basis column c
_SIGNS = tuple(tuple(-1 if (c & z).bit_count() & 1 else 1 for c in range(DIM)) for z in range(DIM))


def _masks(w: PauliWord) -> tuple[int, int]:
    """(xmask, zmask) on the basis index: the bits the word flips and the bits it signs."""
    x = z = 0
    for f in w.factors:    # qubit 1 first, so it lands in the most significant bit
        x, z = x << 1 | (f == "X"), z << 1 | (f == "Z")
    return x, z


def _apply(masks: tuple[int, int], v: Vector) -> Vector:
    """W v: basis column c goes to row c ^ xmask, signed by (-1)^popcount(c & zmask)."""
    x, z = masks
    signs = _SIGNS[z]
    return tuple(signs[r ^ x] * v[r ^ x] for r in range(DIM))


# The five lines, in the order of the 40-ray table's basis groups.  Each of the
# ten distinct words lies on exactly two lines; the first line is the unique one
# whose operator product is -identity.
_LINES: tuple[tuple[str, str, str, str], ...] = (
    ("ZXX", "XXZ", "XZX", "ZZZ"),
    ("ZII", "IZI", "IIZ", "ZZZ"),
    ("XII", "IXI", "IIZ", "XXZ"),
    ("XII", "IZI", "IIX", "XZX"),
    ("ZII", "IXI", "IIX", "ZXX"),
)


def _context_sign(words: tuple[PauliWord, ...]) -> int:
    """s with W1 W2 W3 W4 = s * identity, from where the product sends each basis column."""
    masks = [_masks(w) for w in reversed(words)]    # the rightmost word acts first
    signs = set()
    for c in range(DIM):
        row, sign = c, 1
        for x, z in masks:
            row, sign = row ^ x, sign * _SIGNS[z][row]
        signs.add(sign if row == c else 0)
    if len(signs) == 1 and 0 not in signs:
        return signs.pop()
    raise ValueError(f"words {[w.factors for w in words]} do not multiply to +/-identity")


@lru_cache(maxsize=1)
def pentagram_contexts() -> tuple[Context, ...]:
    """The five contexts of the pentagram, signs derived from the operator product once per
    process (its input is the constant _LINES, and the contexts are immutable)."""
    out = []
    for line in _LINES:
        words = tuple(PauliWord(f) for f in line)
        for a, b in itertools.combinations(words, 2):
            if not commutes(a, b):
                raise ValueError(f"{a} and {b} do not commute")
        out.append(Context(words=words, product_sign=_context_sign(words)))
    return tuple(out)


def eigen_pattern(c: Context, v: Vector) -> tuple[int, int, int, int]:
    """The signs s_k with W_k v = s_k v for the context's four words, v nonzero.  A word
    that v is not an eigenvector of raises a ValueError naming the word."""
    neg = tuple(-a for a in v)
    pattern = []
    for w in c.words:
        wv = _apply(_masks(w), v)
        if wv != v and wv != neg:
            raise ValueError(f"not an eigenvector of {w}")
        pattern.append(1 if wv == v else -1)
    return tuple(pattern)


def pentagram_words() -> tuple[PauliWord, ...]:
    """The ten distinct observables of the cached contexts, in first-appearance order."""
    return tuple(dict.fromkeys(w for c in pentagram_contexts() for w in c.words))


def _tally(lines: list[tuple[int, int]], n_words: int) -> tuple[int, int]:
    """pentagram_unsat's pair for (word bitmask, 1 if the product is -1) lines, all 2^n_words
    assignments at once: bit b of a set is assignment b, and word p is -1 on the column
    whose bit b is bit p of b.  A line holds where the XOR of its columns is its parity."""
    full = (1 << (1 << n_words)) - 1
    # runs of 2^p zeros and 2^p ones: one 2^(p+1)-bit period times full // (2^(2^(p+1)) - 1)
    cols = [((1 << (1 << p)) - 1 << (1 << p)) * full // ((1 << (2 << p)) - 1) for p in range(n_words)]
    sats = [reduce(xor, (c for p, c in enumerate(cols) if mask >> p & 1), 0 if odd else full)
            for mask, odd in lines]
    return (reduce(and_, sats, full).bit_count(),
            max(r for r in range(len(sats) + 1)
                for sub in itertools.combinations(sats, r) if reduce(and_, sub, full)))


def pentagram_unsat() -> tuple[int, int]:
    """Brute-force all 2^10 noncontextual +/-1 assignments against the five line constraints.

    Bit i of an assignment set means word i takes the value -1, so a line's
    product is -1 exactly when the assignment has an odd number of bits on
    the line.  Returns (number of assignments satisfying all 5 lines, max
    lines simultaneously satisfiable).
    """
    words = pentagram_words()
    index = {w: i for i, w in enumerate(words)}
    lines = [
        (sum(1 << index[w] for w in c.words), int(c.product_sign == -1))
        for c in pentagram_contexts()
    ]
    return _tally(lines, len(words))
