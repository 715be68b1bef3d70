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
from dataclasses import dataclass
from math import prod
from operator import mul

from .rays import Ray, canonical_form

FACTORS = ("I", "X", "Z")
DIM = 8

Vector = tuple[int, ...]


@dataclass(frozen=True)
class PauliWord:
    """Three-factor tensor word, e.g. "ZXX"; "ZII" is the single-qubit z on qubit 1."""

    factors: str

    def __post_init__(self) -> None:
        if len(self.factors) != 3 or any(f not in FACTORS for f in self.factors):
            raise ValueError(f"invalid word {self.factors!r}: need 3 factors from {FACTORS}")

    def __str__(self) -> str:
        return self.factors


@dataclass(frozen=True)
class Context:
    """Four pairwise-commuting words whose matrix product is product_sign * identity."""

    words: tuple[PauliWord, PauliWord, PauliWord, PauliWord]
    product_sign: int


def commutes(w1: PauliWord | str, w2: PauliWord | str) -> bool:
    """True iff the number of positions holding one X against one Z is even."""
    f1 = w1.factors if isinstance(w1, PauliWord) else w1
    f2 = w2.factors if isinstance(w2, PauliWord) else w2
    anti = sum(1 for a, b in zip(f1, f2) if a != "I" and b != "I" and a != b)
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
    signs = set()
    for c in range(DIM):
        row, sign = c, 1
        for w in reversed(words):    # the rightmost word acts first
            x, z = _masks(w)
            row, sign = row ^ x, sign * _SIGNS[z][row]
        signs.add(sign if row == c else 0)
    if len(signs) == 1 and 0 not in signs:
        return signs.pop()
    raise ValueError(f"words {[w.factors for w in words]} do not multiply to +/-identity")


def pentagram_contexts() -> tuple[Context, ...]:
    """The five contexts of the pentagram, signs derived from the operator product."""
    out = []
    for line in _LINES:
        words = tuple(PauliWord(f) for f in line)
        for a, b in itertools.combinations(words, 2):
            if not commutes(a, b):
                raise ValueError(f"{a} and {b} do not commute")
        out.append(Context(words=words, product_sign=_context_sign(words)))
    return tuple(out)


def _eigenvector(masks: list[tuple[int, int]], pattern: tuple[int, ...]) -> Vector:
    """First nonzero column of prod_k (I + s_k W_k), 16x the joint eigenprojector."""
    for j in range(DIM):
        v = tuple(int(r == j) for r in range(DIM))
        for (x, z), s in zip(reversed(masks), reversed(pattern)):
            signs = _SIGNS[z]    # v + s W v, entry by entry
            v = tuple(v[r] + s * signs[r ^ x] * v[r ^ x] for r in range(DIM))
        if any(v):
            return v
    raise ArithmeticError(f"sign pattern {pattern} has no common eigenvector")


def common_eigenrays(c: Context) -> list[tuple[Ray, tuple[int, int, int, int]]]:
    """The 8 common eigenrays of a context, one per sign pattern consistent with its product sign.

    Patterns with s1*s2*s3*s4 != product_sign have no common eigenvector,
    because W1 W2 W3 W4 = product_sign * identity (checked by composing the
    words in pentagram_contexts).  For each of the 8 consistent patterns the
    ray is the first nonzero column v of prod_k (I + s_k W_k), certified here:
    W_k v = s_k v for all four words, and the 8 vectors are pairwise
    orthogonal.  Eight orthogonal nonzero joint eigenvectors in dimension 8
    make every joint eigenspace rank one.  A failed check raises ArithmeticError.
    """
    masks = [_masks(w) for w in c.words]
    found = []
    for pattern in itertools.product((1, -1), repeat=4):
        if prod(pattern) != c.product_sign:
            continue
        v = _eigenvector(masks, pattern)
        for m, s in zip(masks, pattern):
            if _apply(m, v) != tuple(s * a for a in v):
                raise ArithmeticError(f"sign pattern {pattern}: column is not an eigenvector")
        found.append((v, pattern))
    if len(found) != DIM:
        raise ArithmeticError(f"context produced {len(found)} rays, expected {DIM}")
    for (u, p), (v, q) in itertools.combinations(found, 2):
        if sum(map(mul, u, v)):
            raise ArithmeticError(f"eigenvectors of patterns {p} and {q} are not orthogonal")
    return [(canonical_form(v), pattern) for v, pattern in found]


def pentagram_words() -> tuple[PauliWord, ...]:
    """The ten distinct observables, in first-appearance order over the five lines."""
    seen: dict[str, PauliWord] = {}
    for line in _LINES:
        for f in line:
            seen.setdefault(f, PauliWord(f))
    return tuple(seen.values())


def pentagram_unsat() -> tuple[int, int]:
    """Brute-force all 2^10 noncontextual +/-1 assignments against the five line constraints.

    Bit i of an assignment set means word i takes the value -1, so a line's
    product is -1 exactly when the assignment has an odd number of bits on
    the line.  Returns (number of assignments satisfying all 5 lines, max
    lines simultaneously satisfiable).
    """
    words = pentagram_words()
    index = {w.factors: i for i, w in enumerate(words)}
    lines = [
        (sum(1 << index[w.factors] for w in c.words), int(c.product_sign == -1))
        for c in pentagram_contexts()
    ]
    sat = [0] * (1 << len(words))    # lines each assignment satisfies, tallied line by line
    for mask, odd in lines:
        for bits in range(len(sat)):
            sat[bits] += (bits & mask).bit_count() & 1 == odd
    return sat.count(len(lines)), max(sat)
