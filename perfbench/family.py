"""Seeded problem files for the benchmark.

``deep_search`` members come from three shapes, each of which drives the
certifier past the corpus's λ = 1, N = 0 path:

* λ-forcing, n = 1: ``f = C(1+y²) − K(x−½)²`` on ``g = (x−⅜)(⅝−x)``.
  C = 21K/64 puts the minimum off S at a quarter of the floor on S, so
  the perturbation weight has to double several times.
* Pólya-forcing, n = 1: ``f = (C + K(x−½)²)(1+y²)`` on ``(x−⅛)(⅞−x)``.
  The homogenised target has negative coefficients, so N > 0.
* Pólya-forcing, n = 2: the same product with ``(x₁−½)² + (x₂−½)²`` on the
  box ``[⅛,⅜]²`` written as two simplex-frame constraints.

Members of one shape share their constraint system, so a caller that
carries the facet-witness sidecar from one member to the next reuses it.
The generator is pure Python so the program under test receives only the
files it writes.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction as Q

# A polynomial is {(x exponents, y exponents): coefficient}.


def _const(n: int, r: int, c) -> dict:
    return {((0,) * n, (0,) * r): Q(c)}


def _x(n: int, r: int, i: int) -> dict:
    return {(tuple(int(j == i) for j in range(n)), (0,) * r): Q(1)}


def _y2(n: int, r: int, j: int) -> dict:
    return {((0,) * n, tuple(2 * int(k == j) for k in range(r))): Q(1)}


def _add(*ps: dict) -> dict:
    out: dict = {}
    for p in ps:
        for mono, c in p.items():
            out[mono] = out.get(mono, Q(0)) + c
    return {m: c for m, c in out.items() if c}


def _scale(c, p: dict) -> dict:
    return {m: Q(c) * v for m, v in p.items() if c}


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (xa, ya), a in p.items():
        for (xb, yb), b in q.items():
            mono = (
                tuple(i + j for i, j in zip(xa, xb)),
                tuple(i + j for i, j in zip(ya, yb)),
            )
            out[mono] = out.get(mono, Q(0)) + a * b
    return {m: c for m, c in out.items() if c}


def _interval(n: int, r: int, i: int, lo: Q, hi: Q) -> dict:
    """(x_i − lo)(hi − x_i)."""
    xi = _x(n, r, i)
    return _mul(_add(xi, _const(n, r, -lo)), _add(_const(n, r, hi), _scale(-1, xi)))


def _dist2(n: int, r: int, centre: Q) -> dict:
    """Σ (x_i − centre)²."""
    out: dict = {}
    for i in range(n):
        d = _add(_x(n, r, i), _const(n, r, -centre))
        out = _add(out, _mul(d, d))
    return out


def _terms(p: dict) -> list[dict]:
    def text(c: Q) -> str:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    return [
        {"c": text(c), "x": list(xe), "y1": list(ye)}
        for (xe, ye), c in sorted(p.items())
    ]


def _problem(n: int, f: dict, g: list[dict]) -> dict:
    return {
        "archimedean_attested": True,
        "f": _terms(f),
        "frame": "simplex",
        "g": [_terms(gi) for gi in g],
        "m": 2,
        "n": n,
        "r": 1,
        "variant": "r1_any_m",
    }


def lambda_forcing(K: Q) -> dict:
    n, r = 1, 1
    C = Q(21, 64) * K
    f = _add(
        _scale(C, _add(_const(n, r, 1), _y2(n, r, 0))),
        _scale(-K, _dist2(n, r, Q(1, 2))),
    )
    return _problem(n, f, [_interval(n, r, 0, Q(3, 8), Q(5, 8))])


def polya_forcing(n: int, C: Q, K: Q) -> dict:
    r = 1
    if n == 1:
        g = [_interval(n, r, 0, Q(1, 8), Q(7, 8))]
    else:
        g = [_interval(n, r, i, Q(1, 8), Q(3, 8)) for i in range(n)]
    f = _mul(
        _add(_const(n, r, C), _scale(K, _dist2(n, r, Q(1, 2)))),
        _add(_const(n, r, 1), _y2(n, r, 0)),
    )
    return _problem(n, f, g)


# Each group shares one constraint system.  The seed orders the groups and
# the members of each group, which decides the member that computes the
# facet witnesses cold, and picks two of the three Pólya scales.  A
# positive scale s multiplies f and leaves N > 0; those members cost about
# the same, so the pass cost stays close across seeds.  The λ group always
# holds K = 16 and K = 64 (λ = 8 and 32): a ten-seed trial that also drew
# K = 32 spread more than the host's own noise.
LAMBDA_SCALES = (1, 4)
POLYA_SCALES = (Q(1, 2), Q(1), Q(2))


def largest_member() -> dict:
    """The n = 2 Pólya member: N = 2 and the largest certificate."""
    return polya_forcing(2, Q(4), Q(56))


def candidates() -> list[list[tuple[str, str, dict]]]:
    """Every member the generator can emit, as ``(id, group, problem)`` per group."""
    return [
        [(f"lambda-K{16 * s}", "lambda", lambda_forcing(Q(16 * s))) for s in LAMBDA_SCALES],
        [(f"polya1-s{s}".replace("/", "_"), "polya1", polya_forcing(1, 4 * s, 128 * s))
         for s in POLYA_SCALES],
        [("polya2-K56", "polya2", largest_member())],
    ]


def deep_search(seed: int) -> list[tuple[str, str, dict]]:
    """``(id, group, problem)`` triples in certification order."""
    rng = random.Random(seed)
    groups = [rng.sample(group, min(2, len(group))) for group in candidates()]
    rng.shuffle(groups)
    return [member for group in groups for member in group]
