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

:func:`canonical_dumps` returns exactly ``json.dumps(obj, sort_keys=True,
separators=(",", ":")) + "\n"``: one line with no spaces, from a small
recursive emitter that takes only what the ``*_to_obj`` functions build:
dicts with str keys, lists, tuples, str, int, bool and None.  Anything
else, a float or a non-str key included, raises ``TypeError``.

:func:`sha256_of_obj`, which gives the problem hash and the sidecar key,
hashes the two-space-indented form, ``json.dumps(obj, sort_keys=True,
indent=2, separators=(",", ": ")) + "\n"``, that files were written in
before they became compact, so every hash stays what it was.  Readers
ignore whitespace: files in either encoding load to the same objects.
"""
from __future__ import annotations

import hashlib
import json
import os
import stat
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .errors import SchemaError, ShapeMismatchError
from .poly import BlockShape, BlockedPoly

# Most decimal digits a numerator, denominator or JSON integer may have
# when a file is read.  ``int()`` takes time quadratic in the digit count,
# so a longer one is refused before any conversion.  The cap is checked
# here, not left to CPython's int-to-str limit (the same 4,300 digits by
# default), which the command line lifts while it formats exact results
# and which CPython before 3.10.7 does not have.
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
    if isinstance(text, bool):
        raise SchemaError(f"expected a rational, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise SchemaError(f"expected a rational string, got {type(text).__name__}")
    if len(text) > DIGIT_CAP and _too_many_digits(text):
        raise SchemaError(f"bad rational {text[:40]!r}...: more than {DIGIT_CAP} digits")
    try:
        # the canonical form, ASCII -?[0-9]+(/[0-9]+)?, skips Fraction's regex
        num, slash, den = text.removeprefix("-").partition("/")
        if text.isascii() and num.isdigit() and (den.isdigit() or not slash):
            p = -int(num) if text[0] == "-" else int(num)
            if not slash:
                return Fraction(p)
            q = int(den)
            if q:
                return Fraction(p, q)
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
    shape = p.shape
    _no_homogenizers(shape)
    n, y1_end = shape.n, shape.n + shape.r1
    out: list[dict[str, Any]] = []
    for exp, coeff in p.sorted_terms():
        term: dict[str, Any] = {}
        if n:
            term["x"] = list(exp[:n])
        if shape.r1:
            term["y1"] = list(exp[n:y1_end])
        if shape.r2:
            term["y2"] = list(exp[y1_end:])
        term["c"] = frac_to_str(coeff)
        out.append(term)
    return out


def poly_from_obj(obj: Any, shape: BlockShape) -> BlockedPoly:
    _no_homogenizers(shape)
    if not isinstance(obj, list):
        raise SchemaError(f"polynomial must be a term list, got {type(obj).__name__}")
    terms: dict[tuple[int, ...], Fraction] = {}
    for item in obj:
        if not isinstance(item, dict) or "c" not in item:
            raise SchemaError(f"bad polynomial term {item!r}")
        exp: list[int] = []
        for key, count in (("x", shape.n), ("y1", shape.r1), ("y2", shape.r2)):
            block = item.get(key, [0] * count)
            if (
                not isinstance(block, list)
                or len(block) != count
                or not all(type(e) is int and e >= 0 for e in block)
            ):
                raise SchemaError(
                    f"term block {key!r} must be {count} nonnegative ints, got {block!r}"
                )
            exp.extend(block)
        if item.get("h", {}) != {}:
            raise SchemaError(f"term 'h' must be {{}} (no homogenizers), got {item['h']!r}")
        key = tuple(exp)
        coeff = frac_from_str(item["c"])
        if key in terms:
            coeff += terms[key]
        if coeff:
            terms[key] = coeff
        else:
            terms.pop(key, None)
    return BlockedPoly._trusted(shape, terms)


# ---------------------------------------------------------------------------
# canonical bytes
# ---------------------------------------------------------------------------

def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no spaces, newline-terminated."""
    return _emit(obj) + "\n"


def _emit(obj: Any) -> str:
    """Compact JSON text of ``obj``."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if all(type(v) is int for v in obj):
            return "[" + ",".join(map(int.__repr__, obj)) + "]"
        return "[" + ",".join(map(_emit, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join([
            encode_basestring_ascii(key) + ":" + _emit(obj[key]) for key in sorted(obj)
        ]) + "}"
    raise TypeError(f"canonical JSON cannot encode {type(obj).__name__}")


def sha256_of_obj(obj: Any) -> str:
    """sha256 of the two-space-indented canonical text of ``obj``."""
    canonical_dumps(obj)  # refuses what canonical_dumps refuses
    text = json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _parse_int(literal: str) -> int:
    """A JSON integer literal of at most :data:`DIGIT_CAP` digits."""
    if len(literal) > DIGIT_CAP and len(literal.lstrip("-")) > DIGIT_CAP:
        raise ValueError(f"an integer of more than {DIGIT_CAP} digits")
    return int(literal)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_parse_int)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal over DIGIT_CAP digits
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
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
