"""Certified lower bounds over (subsets of) the simplex times unit spheres.

The engine under :func:`certified_cylinder_min`, :func:`certified_excess_check`
and :func:`check_leading_form_condition` is one grid scan:

1. The target is reduced modulo each sphere block's relation
   (one squared coordinate is rewritten as 1 minus the others), which is
   exact on the sphere and usually removes coordinates outright; covers
   are then projected onto the surviving coordinates, collapsing their
   size.
2. X-cells come from the simplex lattice; when constraints g_i are
   present, a cell is kept whenever every g_i is >= -(its Lipschitz
   constant times the cell radius), so the kept cells cover a superset
   of S and sampled minima honestly under-approximate the S-restricted
   minimum.
3. Sampled values are combined with Lipschitz error terms — the smaller
   of the closed-form simplex/sphere constants (:func:`bounds_for_target`)
   and coefficient-sum gradient bounds for the reduced target — to get a
   lower bound valid on the whole continuum domain.
4. Every pass screens grid x cover pairs in float64, within a rigorous
   rounding-error term ``slack`` of the exact values (see
   ``_float_slack``).  A pass of at most ``_Scan.EXACT_PAIRS`` (4096)
   pairs evaluates all of them, then evaluates exactly only the pairs
   within 2*slack of the float minimum (overall and over the exactly
   feasible rows) and those below the witness cutoff; these hold every
   exact minimizer and witness, so its bound is the exact minimum minus
   the error terms.  A larger pass subtracts ``slack`` from the float
   minimum instead, and evaluates only the grid rows whose float lower
   bound (``_row_bounds``) is at most the larger of the witness cutoff
   and the minimum of the row with the smallest bound (for exactly
   feasible rows, of such a row with the smallest bound).  Round-to-nearest
   multiply and add are monotone, so that bound lies below every float
   value of its row bit for bit, and the pruned rows cannot change the
   pass result.  Candidate minima are re-evaluated in exact rational
   arithmetic, so every reported witness and sample value is exact.

Refinement doubles the resolution of whichever factor currently
contributes the largest error term, and the running lower bound is the
max over passes, hence monotone in depth.

The sup and Lipschitz constants have one closed form (``_closed_form``),
which :func:`bounds_for_target`, :func:`lipschitz_constants`,
:func:`sup_bound` and :func:`x_lipschitz_constant` all return.  The
float helpers ``_cover_product`` and ``_float_eval`` also run the Polya
screen of :mod:`cylcert.polya`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .covers import ProjectedCover, SimplexGrid, projected_sphere_cover, sqrt_upper
from .errors import (
    BelowThresholdError,
    BudgetExhaustedError,
    CylcertError,
    IndefiniteConditionError,
    NonpositiveWitnessError,
    ResolutionExhaustedError,
    ValidationError,
)
from .poly import BlockedPoly, coeff_abs_sum, weighted_norm
from .problem import SIMPLEX, CylinderProblem, SamplePoint, SphereBlock
from .serialize import frac_to_str

# Widening applied to float64 scan results.  The worst-case evaluation
# error is below sum|c| * (2*deg + #terms + 8) * 2^-53 (coordinate
# rounding, power chains, products, and the summation tree); using 2^-46
# leaves a 128x safety factor over that.
_FLOAT_SLACK_UNIT = Fraction(1, 2**46)


def _float_slack(p: BlockedPoly) -> Fraction:
    return coeff_abs_sum(p) * (2 * p.total_degree() + len(p.terms) + 8) * _FLOAT_SLACK_UNIT


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzData:
    """Sup and Lipschitz constants for a block-homogeneous target.

    ``sup_bound`` dominates |target| on simplex x spheres; ``l_x`` is the
    Lipschitz constant in the X-variables at a fixed sphere point;
    ``l_sphere[i]`` bounds variation along the i-th sphere factor in the
    chord metric (degree times sup, by the Bernstein inequality for
    trigonometric polynomials).  sqrt(n) enters via a rational upper
    bound, recorded in ``sqrt_n``.
    """

    sup_bound: Fraction
    l_x: Fraction
    l_sphere: tuple[Fraction, ...]
    sqrt_n: Fraction

    def to_obj(self) -> dict[str, Any]:
        return {
            "sup_bound": frac_to_str(self.sup_bound),
            "l_x": frac_to_str(self.l_x),
            "l_sphere": [frac_to_str(v) for v in self.l_sphere],
            "sqrt_n": frac_to_str(self.sqrt_n),
        }


def monomial_capacity(blocks: Sequence[tuple[int, int]]) -> int:
    """Number of degree-deg monomials over each dim-sized block, multiplied."""
    out = 1
    for dim, deg in blocks:
        out *= math.comb(deg + dim - 1, dim - 1)
    return out


def _closed_form(
    norm: Fraction, n: int, d: int, caps: Sequence[tuple[int, int]]
) -> LipschitzData:
    """The constants for X-degree ``d`` and sphere blocks ``(dim, degree)``.

    sup = norm * capacity * (d+1) and l_x = (1/2) sqrt(n) * norm *
    capacity * d(d+1), with capacity from :func:`monomial_capacity`; each
    sphere factor gets degree-times-sup.
    """
    cap = monomial_capacity(caps)
    sup = norm * cap * (d + 1)
    rn = sqrt_upper(n)
    l_x = Fraction(1, 2) * rn * norm * cap * d * (d + 1)
    return LipschitzData(sup, l_x, tuple(Fraction(deg) * sup for _, deg in caps), rn)


def bounds_for_target(
    target: BlockedPoly, n: int, blocks: Sequence[SphereBlock]
) -> LipschitzData:
    """Closed-form constants computed from an explicit sphere-block layout."""
    caps = [(len(b.indices), b.degree) for b in blocks]
    return _closed_form(weighted_norm(target), n, target.block_degree("x"), caps)


def lipschitz_constants(
    f: BlockedPoly, d: int, m: int, r: int, *, split: bool = False
) -> LipschitzData:
    """The constants of :func:`bounds_for_target` for the homogenized f.

    The sphere blocks are the joint one (dimension r+1, degree m) or,
    split, a circle of degree m and a block of dimension r+1 and
    degree 2; ``d`` may exceed the X-degree of f.
    """
    if d < f.block_degree("x"):
        raise ValueError(f"d={d} below the X-degree of f")
    caps = [(2, m), (r + 1, 2)] if split else [(r + 1, m)]
    return _closed_form(weighted_norm(f), f.shape.n, d, caps)


def sup_bound(f: BlockedPoly, d: int, m: int, r: int, *, split: bool = False) -> Fraction:
    """Uniform bound on |homogenized f| over simplex x sphere(s).

    Joint block: norm * C(m+r, r) * (d+1).  Split block pair:
    norm * (m+1) * C(r+2, 2) * (d+1), i.e. half of
    norm*(m+1)(r+1)(r+2)(d+1).
    """
    return lipschitz_constants(f, d, m, r, split=split).sup_bound


def x_lipschitz_constant(g: BlockedPoly, n: int) -> Fraction:
    """Simplex Lipschitz constant for an X-only polynomial (no sphere factor)."""
    return _closed_form(weighted_norm(g), n, g.block_degree("x"), ()).l_x


def _gradient_constant(p: BlockedPoly, slots: Iterable[int]) -> Fraction:
    """Coefficient-sum gradient bound over the unit box times the simplex.

    For each slot j, |d p / d u_j| <= sum |c| * e_j whenever every
    coordinate has absolute value <= 1; the Euclidean norm of these
    per-slot bounds is a Lipschitz constant on any convex such domain.
    """
    sq = Fraction(0)
    for s in slots:
        tot = sum((abs(c) * e[s] for e, c in p.terms.items()), start=Fraction(0))
        sq += tot * tot
    return sqrt_upper(sq) if sq else Fraction(0)


# ---------------------------------------------------------------------------
# sphere-relation reduction
# ---------------------------------------------------------------------------

def _eliminate_square(target: BlockedPoly, slots: tuple[int, ...], pivot: int) -> BlockedPoly:
    """Rewrite pivot^2 as 1 - (sum of squares of the other block slots)."""
    shape = target.shape
    repl = BlockedPoly.constant(shape, 1)
    for s in slots:
        if s != pivot:
            repl = repl - BlockedPoly.monomial(shape, tuple(2 if i == s else 0 for i in range(shape.width)))
    current = target
    while True:
        high = {e: c for e, c in current.terms.items() if e[pivot] >= 2}
        if not high:
            return current
        rest = BlockedPoly(shape, {e: c for e, c in current.terms.items() if e[pivot] < 2})
        lowered = BlockedPoly(
            shape,
            {tuple(v - 2 if i == pivot else v for i, v in enumerate(e)): c for e, c in high.items()},
        )
        current = rest + lowered * repl


def _reduce_block(target: BlockedPoly, slots: tuple[int, ...]) -> tuple[BlockedPoly, tuple[int, ...]]:
    """Reduce modulo the block's sphere relation, minimizing surviving slots.

    Tries each slot as the eliminated square and keeps the reduction
    whose result mentions the fewest block coordinates (ties prefer the
    later slot, i.e. the homogenizer).  Returns the reduced target and
    the surviving slots in increasing order.
    """
    best: tuple[BlockedPoly, tuple[int, ...]] | None = None
    for pivot in reversed(slots):
        red = _eliminate_square(target, slots, pivot)
        kept = tuple(s for s in slots if any(e[s] for e in red.terms))
        if best is None or len(kept) < len(best[1]):
            best = (red, kept)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# float evaluation helpers
# ---------------------------------------------------------------------------

def _float_eval(
    points: np.ndarray, terms: Sequence[tuple[tuple[int, ...], Fraction]]
) -> np.ndarray:
    """Evaluate sum c * prod points[:,j]^e_j with power tables per column."""
    count = points.shape[0]
    max_exp = [0] * points.shape[1]
    for exp, _ in terms:
        for j, e in enumerate(exp):
            if e > max_exp[j]:
                max_exp[j] = e
    tables: list[list[np.ndarray]] = []
    for j, top in enumerate(max_exp):
        col = [np.ones(count)]
        for _ in range(top):
            col.append(col[-1] * points[:, j])
        tables.append(col)
    acc = np.zeros(count)
    for exp, coeff in terms:
        v = np.full(count, float(coeff))
        for j, e in enumerate(exp):
            if e:
                v = v * tables[j][e]
        acc += v
    return acc


def _cover_product(covers: Sequence[ProjectedCover]) -> np.ndarray:
    """Float64 coordinates of every combination of the covers' points.

    One row per combination, with the first cover outermost (see
    :meth:`_Scan._reps_at`); the columns are each cover's kept
    coordinates, cover after cover.
    """
    mats = [c.as_floats() for c in covers]
    n_u = math.prod(m.shape[0] for m in mats)
    cols = []
    left, right = 1, n_u
    for m in mats:
        right //= m.shape[0]
        if m.shape[1]:
            cols.append(np.repeat(np.tile(m, (left, 1)), right, axis=0))
        left *= m.shape[0]
    return np.hstack(cols) if cols else np.zeros((n_u, 0))


def _terms_on_slots(p: BlockedPoly, slots: Sequence[int]) -> list[tuple[tuple[int, ...], Fraction]]:
    """Term list of p re-indexed to the given slots (others must be zero)."""
    out = []
    slot_set = set(slots)
    for exp, coeff in p.sorted_terms():
        if any(e and i not in slot_set for i, e in enumerate(exp)):
            raise ValueError("polynomial mentions slots outside the given set")
        out.append((tuple(exp[i] for i in slots), coeff))
    return out


def _value_rows(
    amat: np.ndarray, bmat: np.ndarray, rows: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Float64 values ``sum_k amat[i, k] * bmat[k, :]`` for the given rows.

    Rows are taken in the given order, in chunks of about 4M values, each
    yielded with its row indices.  Products and sums are rounded one at a
    time in signature order, so a value does not depend on which other
    rows are evaluated with it, and :func:`_row_bounds` stays below it.
    """
    n_u = bmat.shape[1]
    chunk = max(1, 4_000_000 // n_u)
    for lo in range(0, len(rows), chunk):
        sel = rows[lo : lo + chunk]
        a = amat[sel]
        block = np.zeros((len(sel), n_u))
        for k in range(bmat.shape[0]):
            block += a[:, k, None] * bmat[None, k, :]
        yield sel, block


def _row_bounds(amat: np.ndarray, bmat: np.ndarray) -> np.ndarray:
    """Per-row float lower bounds of :func:`_value_rows`, valid bit for bit.

    Row i's bound pairs each ``amat[i, k]`` with the smallest (for a
    nonnegative factor) or largest ``bmat[k, :]`` entry and sums the
    products in the same order as the values.  Round-to-nearest multiply
    and add are monotone in each argument, so every rounded step stays at
    or below the matching step of every value in the row, with no slack.
    A NaN anywhere gives a NaN bound, which no comparison prunes.
    """
    low, high = bmat.min(axis=1), bmat.max(axis=1)
    bound = np.zeros(amat.shape[0])
    for k in range(bmat.shape[0]):
        a = amat[:, k]
        bound += a * np.where(a >= 0, low[k], high[k])
    return bound


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedMin:
    """A rigorous lower bound with the evidence that produced it."""

    lower_bound: Fraction
    best_sample: SamplePoint
    grid_depth: int
    lipschitz: LipschitzData
    used_x_constant: Fraction
    used_sphere_constants: tuple[Fraction, ...]
    domain: str
    resolutions: tuple[int, ...]
    float_slack: Fraction
    pairs: int
    evaluated: int

    def to_obj(self) -> dict[str, Any]:
        return {
            "lower_bound": frac_to_str(self.lower_bound),
            "depth": self.grid_depth,
            "domain": self.domain,
            "witness": self.best_sample.to_obj(),
            "resolutions": list(self.resolutions),
            "lipschitz": self.lipschitz.to_obj(),
            "used_constants": {
                "x": frac_to_str(self.used_x_constant),
                "sphere": [frac_to_str(v) for v in self.used_sphere_constants],
            },
            "float_slack": frac_to_str(self.float_slack),
            "pairs": self.pairs,
            "evaluated": self.evaluated,
        }


SIMPLEX_TIMES_SPHERE = "SIMPLEX_TIMES_SPHERE"
S_TIMES_SPHERE = "S_TIMES_SPHERE"


# ---------------------------------------------------------------------------
# the scan engine
# ---------------------------------------------------------------------------

def _ceil_float(v: Fraction) -> float:
    """A float upper bound of an exact rational."""
    f = float(v)
    return f if Fraction(f) >= v else math.nextafter(f, math.inf)


def _cover_cost(dim: int, resolution: int, kept: tuple[int, ...]) -> int:
    """Work estimate for building a projected sphere cover.

    The recursive construction touches one entry per outer point times
    the projected inner cover's size, so levels whose projection
    collapses contribute a constant, not a factor of resolution.
    """
    if dim == 1:
        return 2
    if dim == 2:
        return 2 * (resolution + 1)
    inner = tuple(i for i in kept if i < dim - 1)
    inner_cost = _cover_cost(dim - 1, resolution, inner) if inner else 1
    return (resolution + 1) * inner_cost


class _Scan:
    def __init__(
        self,
        *,
        target: BlockedPoly,
        n: int,
        blocks: tuple[SphereBlock, ...],
        constraints: tuple[BlockedPoly, ...],
        lemma: LipschitzData,
        domain: str,
        witness_threshold: Fraction,
        witness_strict: bool,
        witness_exc: Callable[[SamplePoint], CylcertError],
        success: Callable[[Fraction, Fraction | None], bool],
        fallback_x: tuple[Fraction, ...] | None,
        start_resolution: int,
        depth_cap: int,
        pair_budget: int,
        witness_cap: int,
    ):
        self.target = target
        self.n = n
        self.blocks = blocks
        self.constraints = constraints
        self.lemma = lemma
        self.domain = domain
        self.witness_threshold = witness_threshold
        self.witness_strict = witness_strict
        self.witness_exc = witness_exc
        self.success = success
        self.fallback_x = fallback_x
        self.start_resolution = start_resolution
        self.depth_cap = depth_cap
        self.pair_budget = pair_budget
        self.witness_cap = witness_cap

        shape = target.shape
        allowed = set(range(n))
        for b in blocks:
            allowed.update(b.indices)
        for exp in target.terms:
            for i, e in enumerate(exp):
                if e and i not in allowed:
                    raise ValidationError(
                        f"target mentions variable {shape.var_name(i)} outside the scan domain"
                    )
            for b in blocks:
                if sum(exp[i] for i in b.indices) != b.degree:
                    raise ValidationError(
                        "target is not homogeneous of the declared degree in a sphere block"
                    )

        # reduce modulo the sphere relations, block by block
        reduced = target
        self.kept: list[tuple[int, ...]] = []
        for b in blocks:
            reduced, kept = _reduce_block(reduced, b.indices)
            self.kept.append(kept)
        self.reduced = reduced
        self.slack = _float_slack(reduced)

        self.grad_x = _gradient_constant(reduced, range(n))
        self.used_x = min(lemma.l_x, self.grad_x)
        self.used_sphere = tuple(
            min(ls, _gradient_constant(reduced, kept))
            for ls, kept in zip(lemma.l_sphere, self.kept)
        )

        # decompose the reduced target into x-coefficients per sphere signature
        self.kept_all = tuple(i for kept in self.kept for i in kept)
        sig_map: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
        for exp, coeff in reduced.sorted_terms():
            sig = tuple(exp[i] for i in self.kept_all)
            xpart = tuple(exp[i] for i in range(n))
            sig_map.setdefault(sig, {})[xpart] = coeff
        self.sigs = sorted(sig_map)
        self.sig_coeffs = [sorted(sig_map[s].items()) for s in self.sigs]

        # constraint data: term lists over x plus sound keep-thresholds
        self.g_terms = [_terms_on_slots(g, range(g.shape.n)) for g in constraints]
        self.g_lip = [
            min(x_lipschitz_constant(g, n), _gradient_constant(g, range(g.shape.n)))
            for g in constraints
        ]
        self.g_slack = [_float_slack(g) for g in constraints]

        # work counts over all passes: grid x cover pairs, and those whose
        # float value was computed
        self.pairs = 0
        self.evaluated = 0

    # ----- exact evaluation ---------------------------------------------
    def _full_point(
        self, x: tuple[Fraction, ...], reps: tuple[tuple[Fraction, ...], ...]
    ) -> list[Fraction]:
        pt = [Fraction(0)] * self.target.shape.width
        for i, v in enumerate(x):
            pt[i] = v
        for b, rep in zip(self.blocks, reps):
            for slot, v in zip(b.indices, rep):
                pt[slot] = v
        return pt

    def _exact_value(
        self, x: tuple[Fraction, ...], reps: tuple[tuple[Fraction, ...], ...]
    ) -> Fraction:
        return self.target.eval_at(self._full_point(x, reps))

    def _in_feasible_set(self, x: tuple[Fraction, ...]) -> bool:
        pad = (Fraction(0),) * (self.constraints[0].shape.width - len(x)) if self.constraints else ()
        return all(g.eval_at(tuple(x) + pad) >= 0 for g in self.constraints)

    def _is_witness_value(self, value: Fraction) -> bool:
        if self.witness_strict:
            return value < self.witness_threshold
        return value <= self.witness_threshold

    # ----- main loop -----------------------------------------------------
    def run(self) -> CertifiedMin:
        res_x = self.start_resolution if self.reduced.block_degree("x") > 0 else 1
        res_b = [self.start_resolution] * len(self.blocks)
        lower: Fraction | None = None
        best_value: Fraction | None = None
        best_sample: SamplePoint | None = None

        if self.fallback_x is not None:
            reps = tuple(
                tuple(Fraction(0) for _ in b.indices[:-1]) + (Fraction(1),)
                for b in self.blocks
            )
            value = self._exact_value(self.fallback_x, reps)
            u = tuple(v for rep in reps for v in rep)
            best_value = value
            best_sample = SamplePoint(x=self.fallback_x, u=u, value=value)
            if self._is_witness_value(value) and self._in_feasible_set(self.fallback_x):
                raise self.witness_exc(best_sample)

        last_exhaust: dict[str, Any] = {}
        for depth in range(self.depth_cap + 1):
            result = self._pass(res_x, res_b)
            (pass_lb, candidates, kept_rows, covers) = result
            if lower is None or pass_lb > lower:
                lower = pass_lb

            # exact examination of low samples: witnesses and best-sample updates
            for fval, x, reps in candidates:
                value = self._exact_value(x, reps)
                feasible = self._in_feasible_set(x)
                if feasible:
                    sample = SamplePoint(
                        x=x, u=tuple(v for rep in reps for v in rep), value=value
                    )
                    if best_value is None or value < best_value:
                        best_value, best_sample = value, sample
                    if self._is_witness_value(value):
                        raise self.witness_exc(sample)

            if best_value is not None and self.success(lower, best_value):
                assert best_sample is not None
                assert lower <= best_value
                return CertifiedMin(
                    lower_bound=lower,
                    best_sample=best_sample,
                    grid_depth=depth,
                    lipschitz=self.lemma,
                    used_x_constant=self.used_x,
                    used_sphere_constants=self.used_sphere,
                    domain=self.domain,
                    resolutions=(res_x, *res_b),
                    float_slack=self.slack,
                    pairs=self.pairs,
                    evaluated=self.evaluated,
                )

            # refine the factor with the largest current error term
            terms = [(self.used_x * SimplexGrid(self.n, res_x).radius, -1)]
            for i, cov in enumerate(covers):
                terms.append((self.used_sphere[i] * cov.radius, i))
            err, which = max(terms, key=lambda t: t[0])
            last_exhaust = {
                "lower_bound": frac_to_str(lower),
                "best_value": None if best_value is None else frac_to_str(best_value),
                "depth": depth,
                "resolutions": [res_x, *res_b],
            }
            if err == 0:
                break
            if which < 0:
                res_x *= 2
            else:
                res_b[which] *= 2
        raise ResolutionExhaustedError(
            "grid refinement exhausted without certifying the requested bound",
            **last_exhaust,
        )

    # passes with at most this many grid x cover pairs get exact results
    EXACT_PAIRS = 4096

    # memory guards: never materialize a simplex lattice / recursive sphere
    # cover past these point counts, regardless of the pair budget
    GRID_POINT_CAP = 1 << 24
    COVER_POINT_CAP = 1 << 22

    def _pass(self, res_x: int, res_b: list[int]):
        # size prechecks before materializing anything large
        grid_size = math.comb(res_x + self.n, self.n)
        if grid_size > min(self.pair_budget, self.GRID_POINT_CAP):
            raise BudgetExhaustedError(
                "simplex grid alone exceeds the evaluation budget",
                rows=grid_size,
                budget=min(self.pair_budget, self.GRID_POINT_CAP),
            )
        for i, b in enumerate(self.blocks):
            kept_local = tuple(b.indices.index(s) for s in self.kept[i])
            est = _cover_cost(len(b.indices), res_b[i], kept_local)
            if est > min(self.pair_budget, self.COVER_POINT_CAP):
                raise BudgetExhaustedError(
                    "sphere cover construction exceeds the evaluation budget",
                    block=i,
                    estimated_points=est,
                    budget=min(self.pair_budget, self.COVER_POINT_CAP),
                )

        grid = SimplexGrid(self.n, res_x)
        covers = [
            projected_sphere_cover(
                len(b.indices),
                res_b[i],
                tuple(b.indices.index(s) for s in self.kept[i]),
            )
            for i, b in enumerate(self.blocks)
        ]

        xf = grid.as_floats()
        keep = np.ones(len(grid), dtype=bool)
        sure = np.ones(len(grid), dtype=bool)
        for terms, lip, slack in zip(self.g_terms, self.g_lip, self.g_slack):
            vals = _float_eval(xf, terms)
            keep &= vals >= -_ceil_float(lip * grid.radius + slack)
            sure &= vals >= _ceil_float(slack)
        rows = np.nonzero(keep)[0]
        if rows.size == 0:
            raise ResolutionExhaustedError(
                "no grid cell survives the constraint filter; the feasible set "
                "is thinner than the current grid",
                resolution=res_x,
            )

        counts = [len(c) for c in covers]
        n_u = 1
        for c in counts:
            n_u *= c
        if rows.size * max(1, n_u) > self.pair_budget:
            raise BudgetExhaustedError(
                "scan size exceeds the evaluation budget",
                rows=int(rows.size),
                sphere_points=n_u,
                budget=self.pair_budget,
            )

        total_err = self.used_x * grid.radius + sum(
            (u * c.radius for u, c in zip(self.used_sphere, covers)), start=Fraction(0)
        )

        # witness-candidate cutoff in float terms (upper bound of the exact cut)
        cut = _ceil_float(self.witness_threshold + self.slack)

        if rows.size * max(1, n_u) <= self.EXACT_PAIRS:
            return self._confirmed_pass(grid, rows, covers, total_err, cut)
        return self._float_pass(grid, rows, covers, total_err, cut, sure[rows])

    def _factors(self, xf: np.ndarray, covers) -> tuple[np.ndarray, np.ndarray]:
        """The two float64 factors of the reduced target's value block.

        ``amat[i, k]`` is signature k's x-coefficient at grid row i and
        ``bmat[k, j]`` its sphere monomial at cover combination j, so the
        value at (i, j) is the sum over k of their products (see
        :func:`_value_rows`).  Columns enumerate the product of the covers'
        projected points with the first cover outermost (see
        :meth:`_reps_at`).
        """
        ucoords = _cover_product(covers)
        n_u = ucoords.shape[0]

        # per-signature u-monomials
        n_sig = len(self.sigs)
        bmat = np.empty((n_sig, n_u))
        max_exp = [0] * len(self.kept_all)
        for sig in self.sigs:
            for j, e in enumerate(sig):
                max_exp[j] = max(max_exp[j], e)
        tables = []
        for j, top in enumerate(max_exp):
            col = [np.ones(n_u)]
            for _ in range(top):
                col.append(col[-1] * ucoords[:, j])
            tables.append(col)
        for k, sig in enumerate(self.sigs):
            v = np.ones(n_u)
            for j, e in enumerate(sig):
                if e:
                    v = v * tables[j][e]
            bmat[k] = v

        amat = np.empty((xf.shape[0], n_sig))
        for k, coeffs in enumerate(self.sig_coeffs):
            amat[:, k] = _float_eval(xf, coeffs)
        return amat, bmat

    @staticmethod
    def _reps_at(covers, j: int) -> tuple[tuple[Fraction, ...], ...]:
        """Sphere representatives of value-block column j (first cover outermost)."""
        reps = []
        for cov in reversed(covers):
            j, idx = divmod(j, len(cov))
            reps.append(cov.representatives[idx])
        return tuple(reversed(reps))

    def _confirmed_pass(self, grid, rows, covers, total_err, cut):
        """A small pass whose results are exact, from few exact evaluations.

        Every float value is within ``slack`` of the exact one, so the exact
        minimizers overall and over the exactly feasible rows have float
        values within 2*slack of the matching float minimum, and every
        witness-valued pair has float value <= ``cut``.  Only those pairs
        are evaluated exactly, in row-major order, which gives the same
        bound, best samples and candidate order as evaluating every pair.
        """
        amat, bmat = self._factors(grid.as_floats()[rows], covers)
        block = np.vstack([b for _, b in _value_rows(amat, bmat, np.arange(len(rows)))])
        self.pairs += block.size
        self.evaluated += block.size
        feasible = np.array([self._in_feasible_set(grid.point(int(r))) for r in rows])
        pick = (block <= cut) | (block <= self._near(block.min()))
        if feasible.any():
            pick |= feasible[:, None] & (block <= self._near(block[feasible].min()))

        best: tuple[Fraction, tuple, tuple] | None = None
        best_feas: tuple[Fraction, tuple, tuple] | None = None
        candidates = []
        for i, j in np.argwhere(pick):
            x = grid.point(int(rows[i]))
            reps = self._reps_at(covers, int(j))
            value = self._exact_value(x, reps)
            if best is None or value < best[0]:
                best = (value, x, reps)
            if feasible[i] and (best_feas is None or value < best_feas[0]):
                best_feas = (value, x, reps)
            if self._is_witness_value(value):
                candidates.append((float(value), x, reps))
        assert best is not None
        candidates.sort(key=lambda t: t[0])
        candidates = candidates[: self.witness_cap]
        for extra in (best, best_feas):
            if extra is not None and all(extra[1:] != c[1:] for c in candidates):
                candidates.append((float(extra[0]), extra[1], extra[2]))
        lb = best[0] - total_err
        return lb, candidates, rows, covers

    def _near(self, fmin: float) -> float:
        """Float value bound of every pair whose exact value is the exact minimum behind fmin."""
        return _ceil_float(Fraction(fmin) + 2 * self.slack)

    def _float_pass(self, grid, rows, covers, total_err, cut, sure_rows):
        """A large pass, reduced in float64 over the rows that can matter.

        Its result depends only on the minimum, the minimum over sure rows
        and the pairs at or below ``cut``.  The row with the smallest
        :func:`_row_bounds` bound is evaluated first; its minimum bounds the
        pass minimum from above, so a row whose bound exceeds the larger of
        that and ``cut`` holds none of these pairs and ties with none of
        them.  The sure row with the smallest bound does the same for the
        sure rows.  Only the kept rows are evaluated, in row-major order,
        which gives the same result as evaluating every pair.
        """
        amat, bmat = self._factors(grid.as_floats()[rows], covers)
        bound = _row_bounds(amat, bmat)

        def probe_min(among: np.ndarray) -> float:
            i = among[np.argmin(bound[among])]
            return float(next(_value_rows(amat, bmat, np.array([i])))[1].min())

        keep = ~(bound > max(probe_min(np.arange(len(rows))), cut))
        sure_pos = np.flatnonzero(sure_rows)
        if sure_pos.size:
            keep |= sure_rows & ~(bound > max(probe_min(sure_pos), cut))
        kept = np.flatnonzero(keep)
        self.pairs += len(rows) * bmat.shape[1]
        self.evaluated += kept.size * bmat.shape[1]

        best_val = math.inf
        best_idx = (0, 0)
        sure_val = math.inf
        sure_idx: tuple[int, int] | None = None
        cand: list[tuple[float, int, int]] = []
        for sel, block in _value_rows(amat, bmat, kept):
            n_u = block.shape[1]
            flat = np.argmin(block)
            i, j = divmod(int(flat), n_u)
            if block[i, j] < best_val:
                best_val = float(block[i, j])
                best_idx = (int(sel[i]), j)
            sl = sure_rows[sel]
            if sl.any():
                sub = block[sl]
                sflat = np.argmin(sub)
                si, sj = divmod(int(sflat), n_u)
                if sub[si, sj] < sure_val:
                    sure_val = float(sub[si, sj])
                    sure_idx = (int(sel[np.nonzero(sl)[0][si]]), sj)
            low = np.argwhere(block <= cut)
            if low.size:
                order = np.argsort(block[low[:, 0], low[:, 1]], kind="stable")
                for pos in order[: self.witness_cap]:
                    i2, j2 = low[pos]
                    cand.append((float(block[i2, j2]), int(sel[i2]), int(j2)))
            # free this chunk before the generator builds the next one
            del block

        cand.sort(key=lambda t: t[0])
        cand = cand[: self.witness_cap]
        seen = {(i, j) for _, i, j in cand}
        if best_idx not in seen:
            cand.append((best_val, *best_idx))
            seen.add(best_idx)
        if sure_idx is not None and sure_idx not in seen:
            cand.append((sure_val, *sure_idx))

        out = [
            (fval, grid.point(int(rows[i])), self._reps_at(covers, j))
            for fval, i, j in cand
        ]
        lb = Fraction(best_val) - self.slack - total_err
        return lb, out, rows, covers


def _scan(**kwargs) -> CertifiedMin:
    return _Scan(**kwargs).run()


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def certified_cylinder_min(
    p: CylinderProblem,
    *,
    rel_slack: Fraction = Fraction(1, 1000),
    fallback_x: tuple[Fraction, ...] | None = None,
    start_resolution: int = 8,
    depth_cap: int = 24,
    pair_budget: int = 250_000_000,
    witness_cap: int = 64,
) -> CertifiedMin:
    """Certify a positive lower bound for the homogenized f over S x sphere(s).

    Refines until the bound is positive and within ``rel_slack`` (relative)
    of the best exact sample value.  Raises
    :class:`NonpositiveWitnessError` when an exact point of S x C^r with
    value <= 0 turns up — f is then simply not positive on the cylinder.

    ``fallback_x`` should be a point of S (problem validation produces
    one); it seeds the best-sample tracking, so progress is guaranteed
    even when every scan argmin lands in the cover's S-superset but
    outside S itself.
    """
    if p.frame != SIMPLEX:
        raise ValidationError("certified minimization requires the simplex frame")
    target, blocks = p.homogenized()
    lemma = bounds_for_target(target, p.n, blocks)

    def success(lb: Fraction, best: Fraction | None) -> bool:
        return lb > 0 and best is not None and best - lb <= rel_slack * best

    return _scan(
        target=target,
        n=p.n,
        blocks=blocks,
        constraints=p.g,
        lemma=lemma,
        domain=S_TIMES_SPHERE,
        witness_threshold=Fraction(0),
        witness_strict=False,
        witness_exc=lambda s: NonpositiveWitnessError(
            "f is not positive on the cylinder", witness=s.to_obj()
        ),
        success=success,
        fallback_x=fallback_x,
        start_resolution=start_resolution,
        depth_cap=depth_cap,
        pair_budget=pair_budget,
        witness_cap=witness_cap,
    )


def certified_excess_check(
    target: BlockedPoly,
    threshold: Fraction,
    blocks: tuple[SphereBlock, ...],
    *,
    n: int | None = None,
    start_resolution: int = 8,
    depth_cap: int = 24,
    pair_budget: int = 250_000_000,
    witness_cap: int = 64,
) -> CertifiedMin:
    """Certify min over the FULL simplex x sphere(s) >= threshold.

    Raises :class:`BelowThresholdError` with an exact witness when a
    domain point evaluates strictly below the threshold.
    """
    n = target.shape.n if n is None else n
    lemma = bounds_for_target(target, n, blocks)
    return _scan(
        target=target,
        n=n,
        blocks=tuple(blocks),
        constraints=(),
        lemma=lemma,
        domain=SIMPLEX_TIMES_SPHERE,
        witness_threshold=threshold,
        witness_strict=True,
        witness_exc=lambda s: BelowThresholdError(
            "target dips below the required threshold on the domain",
            threshold=frac_to_str(threshold),
            witness=s.to_obj(),
        ),
        success=lambda lb, best: lb >= threshold,
        fallback_x=None,
        start_resolution=start_resolution,
        depth_cap=depth_cap,
        pair_budget=pair_budget,
        witness_cap=witness_cap,
    )


def check_leading_form_condition(
    p: CylinderProblem,
    *,
    fallback_x: tuple[Fraction, ...] | None = None,
    start_resolution: int = 8,
    depth_cap: int = 24,
    pair_budget: int = 250_000_000,
) -> dict[str, CertifiedMin]:
    """Certify the positive-definiteness side condition over S.

    Each slice from :meth:`CylinderProblem.condition_targets` gets a
    certified positive minimum over S x (its sphere factors).  A witness
    point with value <= 0 raises :class:`IndefiniteConditionError` naming
    the failing slice.
    """
    if p.frame != SIMPLEX:
        raise ValidationError("side-condition check requires the simplex frame")
    out: dict[str, CertifiedMin] = {}
    for name, form, blocks in p.condition_targets():
        lemma = bounds_for_target(form, p.n, blocks)
        out[name] = _scan(
            target=form,
            n=p.n,
            blocks=blocks,
            constraints=p.g,
            lemma=lemma,
            domain=S_TIMES_SPHERE,
            witness_threshold=Fraction(0),
            witness_strict=False,
            witness_exc=lambda s, _name=name: IndefiniteConditionError(
                f"side condition fails: {_name} is not positive definite over S",
                condition=_name,
                witness=s.to_obj(),
            ),
            success=lambda lb, best: lb > 0,
            fallback_x=fallback_x,
            start_resolution=start_resolution,
            depth_cap=depth_cap,
            pair_budget=pair_budget,
            witness_cap=64,
        )
    return out
