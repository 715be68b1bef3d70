import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kp40.ksset import load_ksset_file, ray_indices
from kp40.rays import (
    Ray,
    dot,
    number,
    overlap_prob,
    rational_to_str,
)

from oracles import canonical_form, norm_sq, same_direction

nonzero_entries = st.lists(st.integers(-9, 9), min_size=8, max_size=8).filter(any)


def test_ray_validates_length_and_nonzero():
    with pytest.raises(ValueError):
        Ray((1, 0, 0))
    with pytest.raises(ValueError):
        Ray((0,) * 8)
    for bad in (1.5, float("nan"), float("inf"), True, "1"):
        with pytest.raises(ValueError):
            Ray((bad, 0, 0, 0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        dot([1.9] * 8, [1] * 8)
    assert norm_sq(Ray((0, 1, 0, 0, 0, 0, 0, 0))) == 1
    whole = Ray((np.int64(1), 1.0, np.int8(-2), 0, 0, 0, 0, 0)).entries
    assert whole == (1, 1, -2, 0, 0, 0, 0, 0) and all(type(e) is int for e in whole)


@pytest.mark.parametrize("entries,ray_message,form_message", [
    ((0,) * 8, "zero ray", "zero ray has no canonical form"),
    ((1, 0, 0, 0, 0, 0, 0, 1.5), "1.5 is not an integer", "1.5 is not an integer"),
    ((1, 0, 0, 0, 0, 0, 0, "1"), "'1' is not an integer", "'1' is not an integer"),
    ((1, 0, 0), "expected 8 entries, got 3", "expected 8 entries, got 3"),
    ((1,) * 9, "expected 8 entries, got 9", "expected 8 entries, got 9"),
    ("12345678", "expected a list, got '12345678'", "expected a list, got '12345678'"),
    (b"12345678", "expected a list, got b'12345678'", "expected a list, got b'12345678'"),
    ({"x": 1}, "expected a list, got {'x': 1}", "expected a list, got {'x': 1}"),
    (5, "expected a list, got 5", "expected a list, got 5"),
], ids=["zero", "non-integral", "string", "short", "long", "a-string", "bytes", "a-mapping", "a-number"])
def test_ray_and_canonical_form_reject_bad_entries_with_their_messages(entries, ray_message,
                                                                       form_message):
    with pytest.raises(ValueError) as e:
        Ray(entries)
    assert str(e.value) == ray_message
    with pytest.raises(ValueError) as e:
        canonical_form(entries)
    assert str(e.value) == form_message


@pytest.mark.parametrize("values", [tuple(range(1, 9)), list(range(1, 9)), np.arange(1, 9), range(1, 9)],
                         ids=["tuple", "list", "array", "range"])
def test_ray_and_ray_indices_take_a_tuple_list_array_or_range(values):
    assert Ray(values).entries == ray_indices(values, "index") == tuple(range(1, 9))


@given(nonzero_entries, st.integers(-5, 5).filter(bool))
def test_canonical_form_is_the_ray_the_validating_constructor_builds(e, k):
    form = canonical_form([k * x for x in e])
    assert type(form) is Ray and form == Ray(form.entries)
    assert all(type(x) is int for x in form.entries)


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


def test_parse_ray_entries_names_the_row(tmp_path, kset):
    # Ray rows are parsed by Ray inside load_ksset_file, which names the row.
    p = tmp_path / "bad.json"
    for row, bad, named in [
        (37, lambda r: r[:7], "ray 37: expected 8 entries, got 7"),    # one entry dropped
        (3, lambda r: ["a"] * 8, "ray 3: 'a' is not an integer"),
        (1, lambda r: [0] * 8, "ray 1: zero ray"),
    ]:
        data = kset.to_json()
        data["rays"][row - 1] = bad(data["rays"][row - 1])
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=named):
            load_ksset_file(p)


@pytest.mark.parametrize("value,want", [
    (3, 3.0), (2**70, float(2**70)), (-0.0, -0.0), (math.nan, math.nan), (math.inf, math.inf),
    (np.int64(7), 7.0), (np.float32(0.5), 0.5), (Fraction(1, 4), 0.25),
], ids=["int", "big-int", "float", "nan", "inf", "numpy-int", "numpy-float", "fraction"])
def test_number_takes_a_real_as_a_float(value, want):
    got = number(value)
    assert type(got) is float and repr(got) == repr(want)


@pytest.mark.parametrize("value", [True, np.True_, "1.5", None, 1j, [1.5]],
                         ids=["bool", "numpy-bool", "string", "none", "complex", "list"])
def test_number_refuses_a_bool_a_string_or_anything_else_by_name(value):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(value))} is not a number$"):
        number(value)
