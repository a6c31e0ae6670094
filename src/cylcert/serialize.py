"""Canonical JSON encoding shared by problem, certificate and report files.

Certificates, facet-witness sidecars and the ``certify --diagnostics``
file all go through :func:`canonical_dumps`, which fixes key order,
spacing and number formatting, so identical data always produces
identical bytes.

Rationals are strings (``"3"`` or ``"-3/4"``), never floats.
Polynomials use a term-list encoding: each term is an object with
per-block exponent lists (``"x"``, ``"y1"``, ``"y2"``) and the
coefficient under ``"c"``; blocks absent from the shape are omitted, and
terms appear in canonical sorted order.  Files hold polynomials over a
problem's shape, which has no homogenizers: a term's ``"h"`` must be ``{}``.

:func:`canonical_dumps` is ``json.dumps(obj, sort_keys=True,
separators=(",", ":")) + "\n"``: one line with no spaces, which the
standard library writes with its C encoder because nothing is indented.

:func:`sha256_of_obj`, which gives the problem hash and the sidecar key,
hashes the two-space-indented form, ``json.dumps(obj, sort_keys=True,
indent=2, separators=(",", ": ")) + "\n"``, that files were written in
before they became compact, so every hash stays what it was.  Readers
ignore whitespace: files in either encoding load to the same objects.

Reading is capped at :data:`DIGIT_CAP` digits per integer, in rational
strings and JSON integers alike.  :func:`polys_from_obj` reads term
lists, and :func:`poly_from_obj` one, into the integer form of
:mod:`cylcert.poly` (one common denominator and integer numerators per
polynomial) without a ``Fraction`` per term: canonical coefficient
strings go straight to ints, and other spellings through ``Fraction``.
"""
from __future__ import annotations

import hashlib
import json
import os
import stat
import sys
import tempfile
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm
from typing import Any

from .errors import SchemaError, ShapeMismatchError
from .poly import BlockShape, BlockedPoly

# Most decimal digits a numerator, denominator or JSON integer may have
# when a file is read.  ``int()`` takes time quadratic in the digit count,
# so a longer one is refused before any conversion.  Rational strings are
# checked here.  JSON integers are held to it by CPython's own int-from-str
# limit, which :func:`load_json` sets to the cap while it parses, because
# the command line lifts that limit while it formats exact results.
DIGIT_CAP = 4300

# Largest decimal exponent, in magnitude, that a rational may carry, so
# ``1e4300`` costs no more than reading the longest integer accepted.
EXPONENT_CAP = DIGIT_CAP

# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def frac_to_str(value: Fraction | int) -> str:
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _check_exponent(text: str) -> None:
    """Refuse a decimal exponent above :data:`EXPONENT_CAP` in magnitude.

    ``Fraction`` forms ``10**exponent`` for text such as ``"1e10000000"``,
    which takes seconds to hours; a rational may contain no letter but
    its exponent marker, so the text after the last ``e`` is the exponent
    whenever ``Fraction`` would read one.
    """
    _, marker, exponent = text.strip().lower().rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if marker and digits.isdecimal() and (
        len(digits) > len(str(EXPONENT_CAP)) or int(digits) > EXPONENT_CAP
    ):
        raise SchemaError(
            f"bad rational {text[:40]!r}: decimal exponent above {EXPONENT_CAP}"
        )


def _too_many_digits(text: str) -> bool:
    """Whether a rational string longer than :data:`DIGIT_CAP` has more
    than that many digits on one side of its slash (a decimal's integer
    and fraction digits make one integer)."""
    return any(sum(map(str.isdigit, part)) > DIGIT_CAP for part in text.split("/", 1))


def digits_over_cap(json_text: str) -> bool:
    """Whether a string in ``json_text`` is a rational that
    :func:`frac_from_str` refuses for its digit count."""
    strings = json_text.split('"')
    return any(_too_many_digits(s) for s in strings if len(s) > DIGIT_CAP)


def frac_from_str(text: Any) -> Fraction:
    """Parse a rational from ``"p/q"``, an integer string, or an int."""
    return Fraction(*_ratio(text))


def _ratio(value: Any) -> tuple[int, int]:
    """``(p, q)`` with ``q > 0`` and ``p/q`` the rational :func:`frac_from_str` reads.

    The canonical form, ASCII ``-?[0-9]+(/[0-9]+)?`` within the digit
    cap, is read straight into ints without ``Fraction``'s regex, and
    then ``p/q`` need not be in lowest terms.
    """
    if type(value) is str and (len(value) <= DIGIT_CAP or not _too_many_digits(value)):
        num, slash, den = value.removeprefix("-").partition("/")
        if value.isascii() and num.isdigit() and (den.isdigit() or not slash):
            q = int(den) if slash else 1
            if q:
                return (-int(num) if value[0] == "-" else int(num)), q
    c = _parse_rational(value)
    return c.numerator, c.denominator


def _parse_rational(text: Any) -> Fraction:
    """A rational in any other form that :func:`frac_from_str` accepts."""
    if isinstance(text, bool):
        raise SchemaError(f"expected a rational, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise SchemaError(f"expected a rational string, got {type(text).__name__}")
    if len(text) > DIGIT_CAP and _too_many_digits(text):
        raise SchemaError(f"bad rational {text[:40]!r}...: more than {DIGIT_CAP} digits")
    try:
        _check_exponent(text)
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {text!r}: {exc}") from None


def json_typed(value: Any, kind: type, what: str) -> Any:
    """``value`` if its type is exactly ``kind``: no bool for an int, no
    float or string for either."""
    if type(value) is not kind:
        raise SchemaError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _no_homogenizers(shape: BlockShape) -> None:
    """Refuse a shape with homogenizer slots: no file format has one."""
    if shape.homs:
        raise ShapeMismatchError(
            "polynomials with homogenizers have no file encoding", homs=list(shape.homs)
        )


def poly_to_obj(p: BlockedPoly) -> list[dict[str, Any]]:
    """The term list of ``p``, each coefficient reduced from its integer
    form with one ``gcd`` and spelled as :func:`frac_to_str` spells it."""
    shape = p.shape
    _no_homogenizers(shape)
    n, y1_end = shape.n, shape.n + shape.r1
    den, nums = p._ints
    out: list[dict[str, Any]] = []
    for exp, a in sorted(nums):
        term: dict[str, Any] = {}
        if n:
            term["x"] = list(exp[:n])
        if shape.r1:
            term["y1"] = list(exp[n:y1_end])
        if shape.r2:
            term["y2"] = list(exp[y1_end:])
        common = gcd(a, den)
        term["c"] = str(a // common) if common == den else f"{a // common}/{den // common}"
        out.append(term)
    return out


def _bad_block(key: str, count: int, block: Any) -> SchemaError:
    return SchemaError(f"term block {key!r} must be {count} nonnegative ints, got {block!r}")


def poly_from_obj(obj: Any, shape: BlockShape) -> BlockedPoly:
    """The polynomial of a term list, built in its integer form.

    Terms of one monomial are summed, and a sum of zero is dropped.
    """
    return polys_from_obj([obj], shape)[0]


def polys_from_obj(objs: list[Any], shape: BlockShape) -> tuple[BlockedPoly, ...]:
    """:func:`poly_from_obj` of each term list in ``objs``, read in one pass.

    The blocks' lengths are checked term by term, and their entries in
    one pass over the terms of every list.
    """
    _no_homogenizers(shape)
    blocks = [
        (key, count, [0] * count)
        for key, count in (("x", shape.n), ("y1", shape.r1), ("y2", shape.r2))
    ]
    exps: list[tuple[int, ...]] = []
    ratios: list[tuple[int, int]] = []
    sizes: list[int] = []
    for obj in objs:
        if not isinstance(obj, list):
            raise SchemaError(f"polynomial must be a term list, got {type(obj).__name__}")
        sizes.append(len(obj))
        for item in obj:
            if not isinstance(item, dict) or "c" not in item:
                raise SchemaError(f"bad polynomial term {item!r}")
            exp: list[int] = []
            for key, count, zeros in blocks:
                block = item.get(key, zeros)
                if not isinstance(block, list) or len(block) != count:
                    raise _bad_block(key, count, block)
                exp += block
            if item.get("h", {}) != {}:
                raise SchemaError(f"term 'h' must be {{}} (no homogenizers), got {item['h']!r}")
            exps.append(tuple(exp))
            ratios.append(_ratio(item["c"]))
    flat = list(chain.from_iterable(exps))
    if flat and (set(map(type, flat)) != {int} or min(flat) < 0):
        for item in chain.from_iterable(objs):
            for key, count, zeros in blocks:
                block = item.get(key, zeros)
                if not all(type(e) is int and e >= 0 for e in block):
                    raise _bad_block(key, count, block)
    terms = zip(exps, ratios)
    return tuple(_from_terms(shape, list(islice(terms, size))) for size in sizes)


def _from_terms(
    shape: BlockShape, terms: list[tuple[tuple[int, ...], tuple[int, int]]]
) -> BlockedPoly:
    """``sum p/q X^e`` over ``terms``, each ``(e, (p, q))``."""
    den = lcm(*[q for _, (_, q) in terms])
    nums: dict[tuple[int, ...], int] = {}
    get = nums.get
    for exp, (p, q) in terms:
        nums[exp] = get(exp, 0) + p * (den // q)
    return BlockedPoly._from_ints(shape, den, nums)


# ---------------------------------------------------------------------------
# canonical bytes
# ---------------------------------------------------------------------------

def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no spaces, newline-terminated."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_of_obj(obj: Any) -> str:
    """sha256 of the two-space-indented canonical text of ``obj``."""
    text = json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_capped(fh: Any) -> Any:
    """``json.load`` with JSON integers of at most :data:`DIGIT_CAP` digits.

    The interpreter's int-from-str digit limit is set to the cap while the
    document parses, and the caller's own limit is put back.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_CAP)
    try:
        return json.load(fh)
    finally:
        sys.set_int_max_str_digits(limit)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _load_capped(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    except ValueError:
        # the only other ValueError: an integer literal over DIGIT_CAP digits
        raise SchemaError(
            f"{path} is not valid JSON: an integer of more than {DIGIT_CAP} digits"
        ) from None
    except RecursionError:
        raise SchemaError(f"{path} nests deeper than the JSON reader goes") from None


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename over.

    The file keeps the mode of the one it replaces; a new file gets
    ``0o666`` less the umask, as ``open`` would give it, not the ``0600``
    of the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o022)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
