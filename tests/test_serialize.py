"""Canonical encoding round-trips and schema rejection."""
from __future__ import annotations

import hashlib
import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import snapshot_tool

from cylcert.errors import SchemaError, ShapeMismatchError
from cylcert.poly import BlockShape, BlockedPoly
from cylcert.serialize import (
    canonical_dumps,
    digits_over_cap,
    frac_from_str,
    frac_to_str,
    load_json,
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


@pytest.mark.parametrize("text, refused", [
    ("9" * 4300 + "/" + "7" * 4300, False),
    (" " * 5000 + "12", False),
    ("-" + "9" * 4301, True),
    ("1/" + "7" * 4301, True),
    # a decimal's integer and fraction digits make one integer
    ("1." + "0" * 4299 + "1", True),
    ("1_0" * 2200, True),
])
def test_the_digit_cap_counts_each_side_of_the_slash(text, refused):
    assert digits_over_cap(json.dumps({"c": text})) == refused
    if refused:
        with pytest.raises(SchemaError, match="more than 4300 digits"):
            frac_from_str(text)
    else:
        assert frac_from_str(text) == Fraction(text.strip())


def test_json_integers_past_the_digit_cap_are_refused(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("[-" + "9" * 4300 + "]")
    assert load_json(str(path)) == [-int("9" * 4300)]
    path.write_text("[" + "9" * 4301 + "]")
    with pytest.raises(SchemaError, match="more than 4300 digits"):
        load_json(str(path))


def test_load_json_caps_integers_and_keeps_the_callers_limit(tmp_path):
    path = tmp_path / "doc.json"
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # as cylcert.cli leaves it while a command runs
        path.write_text("[" + "9" * 4300 + "]")
        assert load_json(str(path)) == [int("9" * 4300)]
        path.write_text('{"a": [1, -' + "9" * 4301 + "]}")
        with pytest.raises(SchemaError, match="an integer of more than 4300 digits"):
            load_json(str(path))
        assert sys.get_int_max_str_digits() == 0
    finally:
        sys.set_int_max_str_digits(default)


# a decimal exponent as Fraction reads it, at the end of the text
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _regex_frac_from_str(text):
    """The parser before its canonical fast path, as the reference.

    A decimal exponent above 4300 in magnitude is refused before
    ``Fraction`` would form its power of ten.
    """
    if isinstance(text, bool):
        raise SchemaError(f"expected a rational, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise SchemaError(f"expected a rational string, got {type(text).__name__}")
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > 4300:
        raise SchemaError(f"bad rational {text!r}: exponent too large")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {text!r}: {exc}") from None


_digits = st.text("0123456789", min_size=0, max_size=30)
_canonical_like = st.builds(
    lambda sign, num, slash, den: sign + num + slash + den,
    st.sampled_from(["", "-", "+", "--", " "]),
    _digits,
    st.sampled_from(["", "/", "//", "/-"]),
    _digits,
)
_near_miss = st.text("0123456789-+/_. eE\t\n²٣", max_size=12)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_canonical_like, _near_miss, st.text(max_size=8)))
@example("1/0")
@example("-0/5")
@example("٣/٤")
@example("²")
@example("1_000/3")
@example(" -3/4\n")
@example("9" * 5000)
@example("1/" + "9" * 5000)
@example("1e4300")
@example("-1E-4300")
@example("1e4301")
@example("1e-4301")
@example("2.5e+0004301")
@example("1e10000000")
@example("1e1_000_000")
@example("1e٤٣٠١")
def test_frac_from_str_agrees_with_the_regex_parser(text):
    try:
        expected = _regex_frac_from_str(text)
    except SchemaError:
        with pytest.raises(SchemaError):
            frac_from_str(text)
        return
    got = frac_from_str(text)
    assert type(got) is Fraction
    assert got == expected


def test_poly_round_trip_random():
    rng = random.Random(31)
    shape = BlockShape(2, 1, 1)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exp = tuple(rng.randint(0, 3) for _ in range(shape.width))
            terms[exp] = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        p = BlockedPoly(shape, terms)
        assert poly_from_obj(poly_to_obj(p), shape) == p
    # no file has homogenizers, so a polynomial with them has no encoding
    with pytest.raises(ShapeMismatchError):
        poly_to_obj(BlockedPoly.constant(BlockShape(2, 1, 1, ("Z1",)), 1))


@st.composite
def file_polys(draw):
    """A polynomial over a shape without homogenizers, as files hold them."""
    shape = BlockShape(draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 1)))
    exps = st.tuples(*[st.integers(0, 5)] * shape.width)
    coeffs = st.fractions(max_denominator=10**12).filter(bool)
    return BlockedPoly(shape, draw(st.dictionaries(exps, coeffs, max_size=8)))


@given(file_polys())
@settings(max_examples=200, deadline=None)
def test_poly_from_obj_inverts_poly_to_obj(p):
    assert poly_from_obj(poly_to_obj(p), p.shape) == p


def _poly_to_obj_by_fractions(p):
    """The term list as poly_to_obj once wrote it: a Fraction per term,
    through ``sorted_terms`` and ``frac_to_str``."""
    shape = p.shape
    n, y1_end = shape.n, shape.n + shape.r1
    out = []
    for exp, coeff in p.sorted_terms():
        term = {}
        if n:
            term["x"] = list(exp[:n])
        if shape.r1:
            term["y1"] = list(exp[n:y1_end])
        if shape.r2:
            term["y2"] = list(exp[y1_end:])
        term["c"] = frac_to_str(coeff)
        out.append(term)
    return out


@given(file_polys(), st.fractions(max_denominator=10**30).filter(bool))
@settings(max_examples=200, deadline=None)
def test_poly_to_obj_writes_the_bytes_of_the_fraction_path(p, c):
    for q in (p, p * p, p.scale(c), p * p.scale(c) + BlockedPoly.constant(p.shape, c)):
        obj = poly_to_obj(q)
        assert obj == _poly_to_obj_by_fractions(q)
        assert canonical_dumps(obj) == canonical_dumps(_poly_to_obj_by_fractions(q))


def _views_agree(p):
    """The integer view is the lcm of the reduced denominators over the
    numerators of the Fraction view."""
    den, nums = p._ints
    assert den == math.lcm(*[c.denominator for c in p.terms.values()])
    assert math.gcd(den, *[a for _, a in nums]) == 1
    assert len(nums) == len(p.terms)
    assert dict(nums) == {e: c * den for e, c in p.terms.items()}
    assert all(a for _, a in nums)


def _reference_terms(obj, shape):
    """Fractions summed per monomial, zeros dropped: the reader's value."""
    sums = {}
    for item in obj:
        exp = (*item.get("x", [0] * shape.n), *item.get("y1", [0] * shape.r1),
               *item.get("y2", [0] * shape.r2))
        sums[exp] = sums.get(exp, 0) + Fraction(item["c"])
    return {e: c for e, c in sums.items() if c}


@pytest.mark.parametrize(
    "coeffs",
    [
        ["2/4"],
        ["-0"],
        ["0/5"],
        ["1.5"],
        ["3e2"],
        ["-2.5e-3"],
        [" 7 "],
        [6],
        ["00012/0008"],
        ["1/3", "1/6"],  # one monomial twice: 1/2
        ["1/3", "-1/3"],  # a sum of zero is dropped
        ["1/3", "-1/3", "5/7"],  # and a later term starts it again
        ["-3/9", "2/4", "-0/1"],
    ],
)
def test_any_spelling_reads_to_the_fraction_reference(coeffs):
    shape = BlockShape(1, 1)
    # a second term on another monomial keeps the denominators apart
    obj = [{"x": [1], "y1": [0], "c": c} for c in coeffs] + [{"x": [0], "y1": [2], "c": "5/6"}]
    p = poly_from_obj(obj, shape)
    assert p.terms == _reference_terms(obj, shape)
    _views_agree(p)


@given(file_polys())
@settings(max_examples=100, deadline=None)
def test_the_two_views_agree_on_read_and_computed_polynomials(p):
    read = poly_from_obj(poly_to_obj(p), p.shape)
    _views_agree(read)  # the Fraction view built from the integer one
    one = BlockedPoly.constant(p.shape, Fraction(2, 3))
    for q in (p, p * p, p + one, p.scale(Fraction(-3, 4)), read * read, read - p):
        _views_agree(q)  # the integer view built from the Fraction one


@pytest.mark.parametrize(
    "term",
    [
        {"x": [True], "y1": [0], "c": "1"},
        {"x": [1.0], "y1": [0], "c": "1"},
        {"x": [1], "y1": [-1], "c": "1"},
        {"x": ["1"], "y1": [0], "c": "1"},
        {"x": [1, 0], "y1": [0], "c": "1"},
        {"x": [], "y1": [0], "c": "1"},
        {"x": [1], "y1": [0], "y2": [1], "c": "1"},
        {"x": [1], "y1": [0], "h": {"Z": 1}, "c": "1"},
        {"x": [1], "y1": [0], "c": "1/0"},
    ],
)
def test_a_bad_term_anywhere_in_the_list_is_a_schema_error(term):
    shape = BlockShape(1, 1)
    good = {"x": [0], "y1": [2], "c": "1"}
    for obj in ([term], [good, term], [term, good]):
        with pytest.raises(SchemaError):
            poly_from_obj(obj, shape)


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
    for homs in ({"Z": 1}, {"Z": 0}, [], None):
        with pytest.raises(SchemaError):
            poly_from_obj([{"x": [1], "y1": [0], "h": homs, "c": "1"}], shape)
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


def _generic_dumps(obj):
    """What :func:`canonical_dumps` must return, from the generic encoder."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _indented_dumps(obj):
    """The two-space-indented text :func:`sha256_of_obj` hashes."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


# quotes, backslashes, control characters, non-ASCII text and lone surrogates
_awkward = st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\u2028", "é", "😀", "\ud800", "\udfff"]
)
_texts = st.text(st.one_of(_awkward, st.characters(blacklist_categories=())), max_size=10)
_ints = st.one_of(
    st.integers(-1000, 1000),
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -(2**64)),
)
_scalars = st.one_of(st.none(), st.booleans(), _ints, _texts)
_trees = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(_ints, max_size=4),
        st.dictionaries(_texts, inner, max_size=4),
    ),
    max_leaves=30,
)
_deep = {"a": [[{"b": ({"c": [[{"d": [1, -2**70, True, None, "\ud800\n"]}]]},)}], [], {}, ()]}


@settings(max_examples=200, deadline=None)
@given(obj=_trees)
@example(_deep)
@example({"g": [[{"c": "-3/4", "x": [1]}]], "n": 1, "variant": "R1_ANY_M"})
def test_sha256_of_obj_hashes_the_indented_text(obj):
    # problem hashes and sidecar keys stay those of the indented files
    expected = hashlib.sha256(_indented_dumps(obj).encode("utf-8")).hexdigest()
    assert sha256_of_obj(obj) == expected


# The ids are those the cases had when the lists also held floats and
# non-str keys, which json.dumps writes.
@pytest.mark.parametrize(
    "obj",
    [{"a": [b"x"]}, {1, 2}, [frozenset()], b"x", Fraction(1, 2)],
    ids=["obj1", "obj2", "obj3", "x", "obj7"],
)
def test_canonical_dumps_refuses_what_the_encoders_never_build(obj):
    with pytest.raises(TypeError):
        canonical_dumps(obj)


@pytest.mark.parametrize("obj", [{"a": [b"x"]}, [Fraction(1, 2)]], ids=["obj0", "obj2"])
def test_sha256_of_obj_refuses_what_canonical_dumps_refuses(obj):
    with pytest.raises(TypeError):
        sha256_of_obj(obj)


def test_every_snapshot_file_re_emits_to_its_own_bytes(tmp_path):
    """Certificates, sidecars and diagnostics, each also the generic
    encoder's compact text."""
    assert snapshot_tool().main([str(tmp_path)]) == 0
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 38
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert canonical_dumps(json.loads(text)) == text, path.name
        assert _generic_dumps(json.loads(text)) == text, path.name
