from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kp40.rays import (
    Ray,
    canonical_form,
    dot,
    overlap_prob,
    parse_ray_entries,
    rational_to_str,
    same_direction,
)

from oracles import norm_sq

nonzero_entries = st.lists(st.integers(-9, 9), min_size=8, max_size=8).filter(any)


def test_ray_validates_length_and_nonzero():
    with pytest.raises(ValueError):
        Ray((1, 0, 0))
    with pytest.raises(ValueError):
        Ray((0,) * 8)
    assert norm_sq(Ray((0, 1, 0, 0, 0, 0, 0, 0))) == 1


def test_overlap_prob_is_exact():
    a = (1, 1, 1, 1, 1, 1, 1, 1)
    b = (1, -1, 0, 0, 0, 0, 0, 0)
    assert dot(a, b) == 0
    assert overlap_prob(a, b) == 0
    assert overlap_prob(a, a) == 1
    assert overlap_prob((1, 1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)) == Fraction(1, 2)


def test_overlap_prob_rejects_zero_ray():
    with pytest.raises(ValueError):
        overlap_prob((0,) * 8, (1,) + (0,) * 7)


@given(nonzero_entries, st.integers(1, 7))
def test_overlap_prob_scale_invariant(e, k):
    scaled = tuple(k * x for x in e)
    probe = (1, 2, 0, -1, 0, 0, 3, 0)
    assert overlap_prob(e, probe) == overlap_prob(scaled, probe)


@given(nonzero_entries)
def test_canonical_form_idempotent_and_same_direction(e):
    c = canonical_form(e)
    assert canonical_form(c).entries == c.entries
    assert same_direction(c, e)
    first = next(x for x in c.entries if x)
    assert first > 0


@given(nonzero_entries, st.sampled_from([-3, -2, -1, 2, 3]))
def test_canonical_form_kills_scaling(e, k):
    scaled = tuple(k * x for x in e)
    assert canonical_form(scaled).entries == canonical_form(e).entries


# the second ray is a nonzero multiple of the first (sign and scale free) or unrelated
ray_pairs = st.one_of(
    st.tuples(nonzero_entries, st.integers(-4, 4).filter(bool)).map(
        lambda ek: (ek[0], [ek[1] * x for x in ek[0]])),
    st.tuples(nonzero_entries, nonzero_entries),
)


@given(ray_pairs)
def test_same_direction_is_unit_overlap(pair):
    a, b = pair
    assert same_direction(a, b) == (overlap_prob(a, b) == 1)
    assert same_direction(Ray(a), b) == same_direction(b, a)


def test_same_direction_rejects_zero_ray():
    with pytest.raises(ValueError):
        same_direction((0,) * 8, (1,) + (0,) * 7)


def test_rational_round_trip():
    q = Fraction(3, 12)
    s = rational_to_str(q)
    assert s == "1/4"


def test_parse_ray_entries_names_the_row():
    with pytest.raises(ValueError, match="ray 37"):
        parse_ray_entries([1, -2, 1, 0, 0, 0, 0], index=37)
    with pytest.raises(ValueError, match="integers"):
        parse_ray_entries(["a"] * 8, index=3)
    with pytest.raises(ValueError, match="zero"):
        parse_ray_entries([0] * 8, index=1)
