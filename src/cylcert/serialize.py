"""Canonical JSON encoding shared by problem, certificate and report files.

Everything that reaches disk goes through :func:`canonical_dumps`, which
fixes key order, spacing and number formatting, so identical data always
produces identical bytes.  Rationals are strings (``"3"`` or ``"-3/4"``),
never floats.  Polynomials use a term-list encoding: each term is an
object with per-block exponent lists (``"x"``, ``"y1"``, ``"y2"``), a
``"h"`` map for homogenizer exponents, and the coefficient under ``"c"``;
blocks absent from the shape are omitted, and terms appear in canonical
sorted order.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction
from typing import Any

from .errors import SchemaError
from .poly import BlockShape, BlockedPoly

# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def frac_to_str(value: Fraction | int) -> str:
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def frac_from_str(text: Any) -> Fraction:
    """Parse a rational from ``"p/q"``, an integer string, or an int."""
    if isinstance(text, bool):
        raise SchemaError(f"expected a rational, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise SchemaError(f"expected a rational string, got {type(text).__name__}")
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

def poly_to_obj(p: BlockedPoly) -> list[dict[str, Any]]:
    shape = p.shape
    out: list[dict[str, Any]] = []
    base = shape.n + shape.r1 + shape.r2
    for exp, coeff in p.sorted_terms():
        term: dict[str, Any] = {}
        if shape.n:
            term["x"] = list(exp[: shape.n])
        if shape.r1:
            term["y1"] = list(exp[shape.n : shape.n + shape.r1])
        if shape.r2:
            term["y2"] = list(exp[shape.n + shape.r1 : base])
        homs = {h: exp[base + i] for i, h in enumerate(shape.homs) if exp[base + i]}
        if homs:
            term["h"] = homs
        term["c"] = frac_to_str(coeff)
        out.append(term)
    return out


def poly_from_obj(obj: Any, shape: BlockShape) -> BlockedPoly:
    if not isinstance(obj, list):
        raise SchemaError(f"polynomial must be a term list, got {type(obj).__name__}")
    base = shape.n + shape.r1 + shape.r2
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
        homs = item.get("h", {})
        if not isinstance(homs, dict):
            raise SchemaError(f"term 'h' must be an object, got {homs!r}")
        unknown = set(homs) - set(shape.homs)
        if unknown:
            raise SchemaError(f"homogenizers {sorted(unknown)} not active in shape")
        for name in shape.homs:
            e = homs.get(name, 0)
            if type(e) is not int or e < 0:
                raise SchemaError(f"bad exponent for {name!r}: {e!r}")
            exp.append(e)
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
    """Deterministic JSON text: sorted keys, fixed separators, newline-terminated."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def sha256_of_obj(obj: Any) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
