"""Problem model: positivity of f on S x R^r for S = {g_1 >= 0, ..., g_s >= 0}.

A :class:`CylinderProblem` fixes one of four tractable regimes
(:class:`Variant`), the compact frame the X-variables live in (a box
inside (-1,1)^n, or the standard simplex), and the data f, g_1..g_s.
This module owns the pure-algebra side: schema I/O, the box-to-simplex
change of variables, construction of the homogenized target and of the
side-condition slices, and deterministic feasibility sampling.  The
certified minimization those slices feed into lives in
:mod:`cylcert.certified`.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Any, NamedTuple

from .errors import NoFeasibleSampleError, SchemaError, ValidationError
from .poly import BlockShape, BlockedPoly, homogenize_block, substitute
from .serialize import (
    frac_to_str,
    json_typed,
    poly_from_obj,
    poly_to_obj,
    polys_from_obj,
    sha256_of_obj,
)

BOX = "box"
SIMPLEX = "simplex"

# Largest |coefficient| accepted in f and the g_i.  The floor scan screens
# in float64, whose range ends near 2^1024; a coefficient past it ends in
# an OverflowError there.  c1, c5 and c7 with f scaled by 2^1000
# (coefficients up to 2^1005) still certify, so the cap leaves headroom
# for the box-to-simplex map and the perturbation term.
COEFF_CAP = 2**1000

# Largest degree accepted: m, and the x-degree of f and of each g_i.  The
# floor scan keeps one float64 power table per exponent and the exact
# stages expand powers of the target: c1 with a degree-1000 term added ran
# for minutes or out of memory, while c1 plus x^64/1000 in f certifies in
# about a second.
DEGREE_CAP = 64

# Largest n and r accepted from a problem file.  Every term stores one
# exponent per variable, so a larger count only costs memory: n = 2**70
# ended in an OverflowError while reading the first term.
DIM_CAP = 64

# Validation walks grid levels k = 2, 4, ... up to GRID_LEVEL_CAP, then
# draws VALIDATION_SAMPLES random points from a fixed seed.  GRID_POINTS_CAP bounds
# the points of one level: a level has (k+1)^n points, so a wide problem
# gets only the random samples (at n = 16 the first level alone has 3^16).
GRID_LEVEL_CAP = 32
GRID_POINTS_CAP = 2**16
VALIDATION_SAMPLES = 200


class Variant(Enum):
    """The four supported regimes for the unbounded block(s)."""

    R1_ANY_M = "r1_any_m"  # one unbounded variable, any even degree m
    QUARTIC_R2 = "quartic_r2"  # two unbounded variables, degree 4
    QUADRATIC_RR = "quadratic_rr"  # any number of unbounded variables, degree 2
    SPLIT_M_BY_2 = "split_m_by_2"  # degree m in Y1, degree 2 in a second block

    @property
    def is_split(self) -> bool:
        return self is Variant.SPLIT_M_BY_2

    def check_dims(self, r1: int, r2: int, m: int) -> None:
        """Validate the (r1, r2, m) combination for this regime."""
        if self is Variant.R1_ANY_M:
            ok = r1 == 1 and r2 == 0 and m >= 2 and m % 2 == 0
            want = "r1=1, r2=0, even m >= 2"
        elif self is Variant.QUARTIC_R2:
            ok = r1 == 2 and r2 == 0 and m == 4
            want = "r1=2, r2=0, m=4"
        elif self is Variant.QUADRATIC_RR:
            ok = r1 >= 1 and r2 == 0 and m == 2
            want = "r1>=1, r2=0, m=2"
        else:
            ok = r1 == 1 and r2 >= 1 and m >= 2 and m % 2 == 0
            want = "r1=1, r2>=1, even m >= 2"
        if not ok:
            raise ValidationError(
                f"variant {self.value} needs {want}, got r1={r1}, r2={r2}, m={m}"
            )


class SphereBlock(NamedTuple):
    """A group of variable slots constrained to a unit sphere."""

    indices: tuple[int, ...]
    degree: int  # homogeneity degree of the target in these slots


@dataclass(frozen=True)
class SamplePoint:
    """A rational point of the search domain, with its exact value."""

    x: tuple[Fraction, ...]
    u: tuple[Fraction, ...] = ()
    value: Fraction | None = None

    def to_obj(self) -> dict[str, Any]:
        out: dict[str, Any] = {"x": [frac_to_str(v) for v in self.x]}
        if self.u:
            out["u"] = [frac_to_str(v) for v in self.u]
        if self.value is not None:
            out["value"] = frac_to_str(self.value)
        return out


@dataclass(frozen=True)
class CylinderProblem:
    """Certify f > 0 on S x R^r (or S x R^{1+r} in the split regime)."""

    shape: BlockShape
    variant: Variant
    m: int
    f: BlockedPoly
    g: tuple[BlockedPoly, ...]
    frame: str = BOX
    archimedean_attested: bool = True

    def __post_init__(self) -> None:
        sh = self.shape
        if sh.homs:
            raise ValidationError("problem shape must not carry homogenizers")
        if sh.n < 1:
            raise ValidationError("need at least one compact variable")
        self.variant.check_dims(sh.r1, sh.r2, self.m)
        if self.frame not in (BOX, SIMPLEX):
            raise ValidationError(f"unknown frame {self.frame!r}")
        if self.f.shape != sh:
            raise ValidationError("f shape differs from problem shape")
        if not self.f:
            raise ValidationError("f must be nonzero")
        if self.f.block_degree("y1") != self.m:
            raise ValidationError(
                f"f has degree {self.f.block_degree('y1')} in the first unbounded "
                f"block, declared m={self.m}"
            )
        if self.variant.is_split and self.f.block_degree("y2") != 2:
            raise ValidationError(
                f"f has degree {self.f.block_degree('y2')} in the second unbounded "
                "block, this regime requires exactly 2"
            )
        if not self.g:
            raise ValidationError("need at least one constraint g_i")
        for i, gi in enumerate(self.g):
            if gi.shape != sh:
                raise ValidationError(f"g_{i + 1} shape differs from problem shape")
            if gi.block_degree("y1") or gi.block_degree("y2"):
                raise ValidationError(f"g_{i + 1} must involve only the X-block")
            if gi.block_degree("x") < 1:
                raise ValidationError(f"g_{i + 1} is constant; drop it from the input")
        named = [("f", self.f)] + [(f"g_{i + 1}", gi) for i, gi in enumerate(self.g)]
        degrees = [("f", "y1", self.m)]
        degrees += [(name, "x", poly.block_degree("x")) for name, poly in named]
        for name, block, degree in degrees:
            if degree > DEGREE_CAP:
                raise ValidationError(
                    f"{name} has degree {degree} in {block}, above the cap {DEGREE_CAP}",
                    polynomial=name,
                    block=block,
                    degree=degree,
                    cap=DEGREE_CAP,
                )
        for name, poly in named:
            for exp, c in poly.terms.items():
                if abs(c) > COEFF_CAP:
                    raise ValidationError(
                        f"a coefficient of {name} exceeds 2^1000 in absolute value",
                        polynomial=name,
                        exponent=list(exp),
                        cap="2^1000",
                    )

    # ----- derived quantities -------------------------------------------
    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def r(self) -> int:
        """The r of the regime: second-block size when split, else r1."""
        return self.shape.r2 if self.variant.is_split else self.shape.r1

    @property
    def s(self) -> int:
        return len(self.g)

    @property
    def d(self) -> int:
        return self.f.block_degree("x")

    def problem_hash(self) -> str:
        return sha256_of_obj(problem_to_obj(self))

    # ----- homogenized target -------------------------------------------
    def padding(self) -> tuple[tuple[str, str, int], ...]:
        """``(block, homogenizer, degree)`` for each unbounded block.

        Single-block regimes pad the unbounded block to degree m with Z;
        the split regime pads Y1 to m with Z1 and the second block to 2
        with Z2.  The sphere blocks, the padding SOS factor and its degree
        all follow from this list.
        """
        if self.variant.is_split:
            return (("y1", "Z1", self.m), ("y2", "Z2", 2))
        return (("y1", "Z", self.m),)

    def homogenized(self) -> tuple[BlockedPoly, tuple[SphereBlock, ...]]:
        """The degree-saturated target and its sphere blocks, per :meth:`padding`.

        The returned target is positive on S x (product of unit spheres)
        exactly when f is positive on the cylinder and the side condition
        holds.
        """
        target = self.f
        for block, hom, degree in self.padding():
            target = homogenize_block(target, block, degree, hom)
        sh = target.shape
        return target, tuple(
            SphereBlock(sh.block_indices(block) + sh.block_indices(hom), degree)
            for block, hom, degree in self.padding()
        )

    # ----- side-condition slices ----------------------------------------
    def condition_targets(self) -> list[tuple[str, BlockedPoly, tuple[SphereBlock, ...]]]:
        """The forms whose certified positivity on S x spheres is the side condition.

        Single-block regimes: the top-degree part of f in the unbounded
        block must be positive on S x (unit sphere of that block); this is
        exactly positive definiteness of the leading form at every point
        of S.  Split regime: two slices of the doubly padded target —
        freeze (Y1, Z1) = (1, 0), positive on S x (sphere of block 2);
        freeze Z2 = 0, positive on S x (circle of block 1) x (bare unit
        sphere of the Y-part of block 2).  Together these are equivalent
        to the pointwise positive-definiteness conditions.
        """
        sh = self.shape
        if not self.variant.is_split:
            y1 = sh.block_indices("y1")
            lead = BlockedPoly(
                sh,
                {
                    e: c
                    for e, c in self.f.terms.items()
                    if sum(e[i] for i in y1) == self.m
                },
            )
            return [("leading_form", lead, (SphereBlock(y1, self.m),))]
        target, (b1, b2) = self.homogenized()
        tsh = target.shape
        one = BlockedPoly.constant(tsh, 1)
        zero = BlockedPoly.zero(tsh)
        slice_top = substitute(
            target, {tsh.y1_index(0): one, tsh.hom_index("Z1"): zero}
        )
        slice_quad = substitute(target, {tsh.hom_index("Z2"): zero})
        y2 = tsh.block_indices("y2")
        return [
            ("top_block_slice", slice_top, (b2,)),
            ("quadratic_block_slice", slice_quad, (b1, SphereBlock(y2, 2))),
        ]


# ---------------------------------------------------------------------------
# box -> simplex change of variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RescaleRecord:
    """The affine substitution x_i -> scale*x_i + offset applied per axis.

    ``forward`` maps the box frame into the simplex; certificates computed
    in the simplex frame compose with ``forward`` to return to the box
    frame (constraints pull back exactly).
    """

    n: int
    scale: Fraction
    offset: Fraction

    def forward_coord(self, value: Fraction) -> Fraction:
        return self.scale * value + self.offset

    def forward_subst(self, shape: BlockShape) -> dict[int, BlockedPoly]:
        return {
            i: BlockedPoly.variable(shape, i).scale(self.scale)
            + BlockedPoly.constant(shape, self.offset)
            for i in range(self.n)
        }

    def inverse_subst(self, shape: BlockShape) -> dict[int, BlockedPoly]:
        inv_scale = 1 / self.scale
        return {
            i: BlockedPoly.variable(shape, i).scale(inv_scale)
            + BlockedPoly.constant(shape, -self.offset * inv_scale)
            for i in range(self.n)
        }

    def to_obj(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "scale": frac_to_str(self.scale),
            "offset": frac_to_str(self.offset),
        }


def rescale_to_simplex(p: CylinderProblem) -> tuple[CylinderProblem, RescaleRecord]:
    """Move a box-framed problem into the simplex frame.

    Each x_i becomes (x_i + 1)/(2n), carrying (-1,1)^n into (0,1/n)^n,
    which sits inside the standard simplex.  f and the g_i are composed
    with the inverse map, so the new problem has the same feasible set up
    to the change of coordinates.  The weighted norm of the transported f
    grows by at most (3n)^d.
    """
    if p.frame != BOX:
        raise ValidationError("problem is already in the simplex frame")
    record = RescaleRecord(p.n, Fraction(1, 2 * p.n), Fraction(1, 2 * p.n))
    inv = record.inverse_subst(p.shape)
    moved = CylinderProblem(
        shape=p.shape,
        variant=p.variant,
        m=p.m,
        f=substitute(p.f, inv),
        g=tuple(substitute(gi, inv) for gi in p.g),
        frame=SIMPLEX,
        archimedean_attested=p.archimedean_attested,
    )
    return moved, record


# ---------------------------------------------------------------------------
# deterministic validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    points_checked: int = 0
    feasible: SamplePoint | None = None
    containment_violations: list[SamplePoint] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.feasible is not None and not self.containment_violations

    def to_obj(self) -> dict[str, Any]:
        return {
            "points_checked": self.points_checked,
            "feasible": None if self.feasible is None else self.feasible.to_obj(),
            "containment_violations": [
                pt.to_obj() for pt in self.containment_violations
            ],
            "ok": self.ok,
        }


def _in_frame(p: CylinderProblem, x: tuple[Fraction, ...]) -> bool:
    if p.frame == BOX:
        return all(-1 < v < 1 for v in x)
    return all(v >= 0 for v in x) and sum(x) <= 1


def validate_problem(p: CylinderProblem) -> ValidationReport:
    """Search for a feasible sample and check frame containment on it.

    Scans [-2,2]^n with doubling grid resolution (deterministic) up to
    ``GRID_LEVEL_CAP``, as long as one level has at most
    ``GRID_POINTS_CAP`` points, then ``VALIDATION_SAMPLES`` random
    rational points from one fixed seed, so the report depends on the
    problem alone.  Every feasible point found must lie in the declared
    frame region — an open box inside (-1,1)^n, or the standard simplex —
    otherwise it is reported as a containment violation.  Raises
    :class:`NoFeasibleSampleError` when no feasible point turns up; the
    search is not a decision procedure, so this means "not found", not
    "empty".
    """
    report = ValidationReport()
    rng = random.Random(0)

    pad = (Fraction(0),) * (p.shape.width - p.n)

    def visit(x: tuple[Fraction, ...]) -> None:
        report.points_checked += 1
        if all(gi.eval_at(x + pad) >= 0 for gi in p.g):
            pt = SamplePoint(x=x)
            if not _in_frame(p, x):
                if len(report.containment_violations) < 8:
                    report.containment_violations.append(pt)
            elif report.feasible is None:
                report.feasible = pt

    k = 2
    while k <= GRID_LEVEL_CAP and (k + 1) ** p.n <= GRID_POINTS_CAP:
        for idx in itertools.product(range(k + 1), repeat=p.n):
            visit(tuple(Fraction(4 * a, k) - 2 for a in idx))
        if report.feasible is not None or report.containment_violations:
            break
        k *= 2
    for _ in range(VALIDATION_SAMPLES):
        denom = 2 ** rng.randint(3, 12)
        visit(tuple(Fraction(rng.randint(-2 * denom, 2 * denom), denom) for _ in range(p.n)))
    if report.feasible is None and not report.containment_violations:
        raise NoFeasibleSampleError(
            "no feasible point of S found; cannot proceed",
            points_checked=report.points_checked,
        )
    return report


# ---------------------------------------------------------------------------
# schema I/O
# ---------------------------------------------------------------------------

def _shape_for(variant: Variant, n: int, r: int) -> BlockShape:
    if variant is Variant.R1_ANY_M:
        return BlockShape(n, 1, 0)
    if variant is Variant.QUARTIC_R2:
        return BlockShape(n, 2, 0)
    if variant is Variant.QUADRATIC_RR:
        return BlockShape(n, r, 0)
    return BlockShape(n, 1, r)


def problem_to_obj(p: CylinderProblem) -> dict[str, Any]:
    return {
        "n": p.n,
        "variant": p.variant.value,
        "m": p.m,
        "r": p.r,
        "frame": p.frame,
        "f": poly_to_obj(p.f),
        "g": [poly_to_obj(gi) for gi in p.g],
        "archimedean_attested": p.archimedean_attested,
    }


def problem_from_obj(obj: Any) -> CylinderProblem:
    if not isinstance(obj, dict):
        raise SchemaError("problem file must contain a JSON object")
    try:
        n = obj["n"]
        variant_tag = obj["variant"]
        m = obj["m"]
        r = obj["r"]
        frame = obj["frame"]
        f_obj = obj["f"]
        g_obj = obj["g"]
    except KeyError as exc:
        raise SchemaError(f"problem file missing field {exc}") from None
    n, m, r = (json_typed(v, int, name) for name, v in (("n", n), ("m", m), ("r", r)))
    try:
        variant = Variant(variant_tag)
    except ValueError:
        raise SchemaError(
            f"unknown variant {variant_tag!r}; expected one of "
            f"{[v.value for v in Variant]}"
        ) from None
    if frame not in (BOX, SIMPLEX):
        raise SchemaError(f"unknown frame {frame!r}")
    if not isinstance(g_obj, list):
        raise SchemaError("'g' must be a list of polynomials")
    if n < 1 or r < 0:
        raise SchemaError("need n >= 1 and r >= 0")
    if n > DIM_CAP or r > DIM_CAP:
        raise ValidationError(f"need n and r at most {DIM_CAP}", n=n, r=r)
    shape = _shape_for(variant, n, r)
    if (variant is Variant.R1_ANY_M and r != 1) or (
        variant is Variant.QUARTIC_R2 and r != 2
    ):
        raise SchemaError(f"variant {variant.value} fixes r, got r={r}")
    f = poly_from_obj(f_obj, shape)
    g = polys_from_obj(g_obj, shape)
    attested = obj.get("archimedean_attested", True)
    if not isinstance(attested, bool):
        raise SchemaError("archimedean_attested must be a boolean")
    return CylinderProblem(
        shape=shape,
        variant=variant,
        m=m,
        f=f,
        g=g,
        frame=frame,
        archimedean_attested=attested,
    )
