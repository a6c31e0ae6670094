"""Canonical encoding round-trips and schema rejection."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cylcert.errors import SchemaError
from cylcert.poly import BlockShape, BlockedPoly
from cylcert.serialize import (
    canonical_dumps,
    frac_from_str,
    frac_to_str,
    poly_from_obj,
    poly_to_obj,
    sha256_of_obj,
)


def test_fraction_round_trip():
    for v in [Fraction(0), Fraction(3), Fraction(-3, 4), Fraction(10**30, 7)]:
        assert frac_from_str(frac_to_str(v)) == v
    assert frac_to_str(Fraction(5)) == "5"
    assert frac_to_str(Fraction(-1, 2)) == "-1/2"
    assert frac_from_str(7) == 7


def test_fraction_rejects_garbage():
    with pytest.raises(SchemaError):
        frac_from_str("1/0")
    with pytest.raises(SchemaError):
        frac_from_str("abc")
    with pytest.raises(SchemaError):
        frac_from_str(True)
    with pytest.raises(SchemaError):
        frac_from_str([1, 2])


def test_poly_round_trip_random():
    rng = random.Random(31)
    shape = BlockShape(2, 1, 1, ("Z1", "Z2"))
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exp = tuple(rng.randint(0, 3) for _ in range(shape.width))
            terms[exp] = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        p = BlockedPoly(shape, terms)
        assert poly_from_obj(poly_to_obj(p), shape) == p


def test_poly_obj_omits_absent_blocks():
    shape = BlockShape(1, 1)
    p = BlockedPoly(shape, {(1, 2): Fraction(3)})
    obj = poly_to_obj(p)
    assert obj == [{"x": [1], "y1": [2], "c": "3"}]


def test_poly_from_obj_rejects_bad_terms():
    shape = BlockShape(1, 1)
    with pytest.raises(SchemaError):
        poly_from_obj([{"x": [1, 2], "y1": [0], "c": "1"}], shape)
    with pytest.raises(SchemaError):
        poly_from_obj([{"x": [1], "y1": [-1], "c": "1"}], shape)
    with pytest.raises(SchemaError):
        poly_from_obj([{"x": [1], "y1": [0], "h": {"Z": 1}, "c": "1"}], shape)
    with pytest.raises(SchemaError):
        poly_from_obj({"x": [1]}, shape)
    with pytest.raises(SchemaError):
        poly_from_obj([{"x": [1], "y1": [0]}], shape)


def test_canonical_dumps_is_key_order_independent():
    a = canonical_dumps({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = canonical_dumps({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert sha256_of_obj({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}}) == sha256_of_obj(
        {"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1}
    )
