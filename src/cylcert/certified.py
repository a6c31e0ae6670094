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
3. Sampled values are combined with Lipschitz error terms to get a
   lower bound valid on the whole continuum domain.  Each factor (the
   simplex, each sphere) has one constant: the coefficient-sum gradient
   bound of the reduced target over that factor's coordinates
   (``_gradient_constant``); the constraint screen of point 2 uses the
   same bound for each g_i.
4. Every pass is one reduction in float64, within a rigorous
   rounding-error term ``slack`` of the exact values (see
   ``_float_slack``).  The constraint screen also decides once per kept
   row whether it lies in S: float64 places every row where each g_i
   clears its slack or some g_i lies below minus its slack, and only the
   rows in between are checked in exact arithmetic, so this "in S" mask
   is exact.  The pass evaluates only the grid rows whose float lower
   bound (``_row_bounds``) is at most the larger of the witness cutoff
   and the minimum of the row with the smallest bound (and, for the
   rows of S, of such a row of S).  Round-to-nearest multiply and add
   are monotone, so that bound lies below every float value of its row
   bit for bit, and the pruned rows cannot change the pass result.
   The input size picks one of two results.  A pass of at most
   ``EXACT_PAIRS`` (4096) pairs prunes with the minimum plus 2*slack and
   values exactly every pair within 2*slack of the float minimum
   (overall and over the rows of S) and every pair below the witness
   cutoff; these hold every exact minimizer and witness, so its bound is
   the exact minimum minus the error terms.  A larger pass keeps the
   ``WITNESS_CAP`` smallest pairs below the cutoff and its two float
   argmins, and its bound is the float minimum minus ``slack`` and the
   error terms, so every reported witness and sample value is exact.
   Exact values come from the integer counterparts of the float
   factors (``_Scan._exact_values``): one integer factor per signature
   for each grid row, from its lattice integers, and for each cover
   combination, from the covers' stored numerators and denominators, so
   a pair's value is one integer dot product over a positive
   denominator.  Minima and witness tests compare these fractions in
   integers, and a ``Fraction`` is made only for a returned sample.
   Every cover representative lies exactly on its sphere, where the
   target equals the reduced target at the projected point, so the value
   is the target's at the sample's full point.

Refinement doubles the resolution of whichever factor currently
contributes the largest error term, and the running lower bound is the
max over passes, hence monotone in depth; a scan that has not succeeded
after ``DEPTH_CAP`` refinements stops with
:class:`ResolutionExhaustedError`.

A pass works through the grid in blocks of rows sized to about
``BLOCK_VALUES`` float64 values: float coordinates, power tables and
value chunks exist for one block at a time.  The only arrays that span a
pass are per-row vectors (the integer lattice, the kept-row indices, the
"in S" mask, the row bounds and ``amat``, one float per sphere
signature) and the cover-sized arrays (cover coordinates, their power
tables and ``bmat``).  Before it builds them, a pass estimates their
bytes (``_Scan._float_bytes``) and stops with
:class:`BudgetExhaustedError` above ``MEMORY_BUDGET``, as it does above
``PAIR_BUDGET`` pairs.  Each sphere cover is sized by
:func:`~cylcert.covers.projected_sphere_cover` itself, which refuses one
too large to build.
"""
from __future__ import annotations

import math
import operator
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
from .poly import BlockedPoly, coeff_abs_sum
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
# Lipschitz constants
# ---------------------------------------------------------------------------

def _gradient_constant(p: BlockedPoly, slots: Iterable[int]) -> Fraction:
    """Coefficient-sum gradient bound over the unit box times the simplex.

    For each slot j, |d p / d u_j| <= sum |c| * e_j whenever every
    coordinate has absolute value <= 1; the Euclidean norm of these
    per-slot bounds is a Lipschitz constant on any convex such domain.
    """
    sq = Fraction(0)
    terms = p.terms.items()
    for s in slots:
        tot = sum((abs(c) * e[s] for e, c in terms), start=Fraction(0))
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
        terms = current.terms
        high = {e: c for e, c in terms.items() if e[pivot] >= 2}
        if not high:
            return current
        rest = BlockedPoly(shape, {e: c for e, c in terms.items() if e[pivot] < 2})
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
        exps = list(red.terms)
        kept = tuple(s for s in slots if any(e[s] for e in exps))
        if best is None or len(kept) < len(best[1]):
            best = (red, kept)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# float evaluation helpers
# ---------------------------------------------------------------------------

# Rows of one block are sized so that the block's row-length arrays hold
# about this many float64 values (512 KiB): power tables and work arrays of
# _float_eval, and the value chunk of _value_rows.
BLOCK_VALUES = 1 << 16


def _row_width(exps: Sequence[tuple[int, ...]], cols: int) -> int:
    """Float64 values per row that :func:`_float_eval` holds for terms with
    exponents ``exps`` in ``cols`` coordinates: the power tables of every
    column up to its largest exponent, and one work array."""
    return 1 + sum(max((exp[j] for exp in exps), default=0) + 1 for j in range(cols))


def _blocks(count: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``range(count)``, each of ``BLOCK_VALUES //
    width`` rows (at least one), for ``width`` values per row."""
    step = max(1, BLOCK_VALUES // max(width, 1))
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _power_tables(points: np.ndarray, exps: Sequence[tuple[int, ...]]) -> list[list[np.ndarray]]:
    """``tables[j][e] = points[:, j] ** e`` by repeated products, up to
    column j's largest exponent in ``exps``."""
    tables = []
    for j in range(points.shape[1]):
        col = [np.ones(points.shape[0])]
        for _ in range(max((exp[j] for exp in exps), default=0)):
            col.append(col[-1] * points[:, j])
        tables.append(col)
    return tables


def _times_monomial(
    v: np.ndarray, tables: list[list[np.ndarray]], exp: tuple[int, ...]
) -> np.ndarray:
    """``v`` times the monomial ``exp`` read off :func:`_power_tables`, in place."""
    for j, e in enumerate(exp):
        if e:
            v *= tables[j][e]
    return v


def _float_eval(
    points: np.ndarray, terms: Sequence[tuple[tuple[int, ...], Fraction]]
) -> np.ndarray:
    """Evaluate sum c * prod points[:,j]^e_j with power tables per column.

    The tables are built for one block of rows at a time (:func:`_blocks`);
    every value is the same chain of products and sums in term order
    whatever the block, so blocking changes no bit.
    """
    exps = [exp for exp, _c in terms]
    coeffs = [float(c) for _e, c in terms]
    acc = np.zeros(points.shape[0])
    for blk in _blocks(points.shape[0], _row_width(exps, points.shape[1])):
        tables = _power_tables(points[blk], exps)
        part = acc[blk]
        for exp, coeff in zip(exps, coeffs):
            part += _times_monomial(np.full(part.shape[0], coeff), tables, exp)
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

    Rows are taken in the given order, in chunks of about ``BLOCK_VALUES``
    values, each yielded with its row indices.  Each signature's products
    go into one reused buffer.  Products and sums are rounded one at a
    time in signature order, so a value does not depend on which other
    rows are evaluated with it, and :func:`_row_bounds` stays below it.
    """
    n_u = bmat.shape[1]
    product = np.empty((min(len(rows), max(1, BLOCK_VALUES // n_u)), n_u))
    for blk in _blocks(len(rows), n_u):
        sel = rows[blk]
        a = amat[sel]
        block, prod = np.zeros((len(sel), n_u)), product[: len(sel)]
        for k in range(bmat.shape[0]):
            np.multiply(a[:, k, None], bmat[None, k, :], out=prod)
            block += prod
        yield sel, block


def _row_bounds(amat: np.ndarray, bmat: np.ndarray) -> np.ndarray:
    """Per-row float lower bounds of :func:`_value_rows`, valid bit for bit.

    Row i's bound pairs each ``amat[i, k]`` with the smallest (for a
    nonnegative factor) or largest ``bmat[k, :]`` entry and sums the
    products in the same order as the values.  Round-to-nearest multiply
    and add are monotone in each argument, so every rounded step stays at
    or below the matching step of every value in the row, with no slack.
    A NaN anywhere gives a NaN bound, which no comparison prunes.  Rows
    are bounded one block at a time.
    """
    low, high = bmat.min(axis=1), bmat.max(axis=1)
    bound = np.zeros(amat.shape[0])
    for blk in _blocks(amat.shape[0], amat.shape[1] + 2):
        part = bound[blk]
        for k in range(bmat.shape[0]):
            a = amat[blk, k]
            part += a * np.where(a >= 0, low[k], high[k])
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

# Scan constants.  A pass starts at START_RESOLUTION in every factor; one
# of at most EXACT_PAIRS grid x cover pairs has an exact result.  A pass
# returns at most WITNESS_CAP witness-valued samples.  PAIR_BUDGET caps the
# pairs of one pass and DEPTH_CAP the refinements of one scan;
# MEMORY_BUDGET caps the estimated bytes of a pass's arrays.  The cap on
# each sphere cover's construction lives with the builder, in
# covers.COVER_POINT_CAP.
START_RESOLUTION = 8
EXACT_PAIRS = 4096
WITNESS_CAP = 64
PAIR_BUDGET = 250_000_000
DEPTH_CAP = 24
MEMORY_BUDGET = 1 << 28


def _ceil_float(v: Fraction) -> float:
    """A float upper bound of an exact rational."""
    f = float(v)
    return f if Fraction(f) >= v else math.nextafter(f, math.inf)


class _Scan:
    def __init__(
        self,
        *,
        target: BlockedPoly,
        blocks: tuple[SphereBlock, ...],
        constraints: tuple[BlockedPoly, ...],
        witness_threshold: Fraction,
        witness_strict: bool,
        witness_exc: Callable[[SamplePoint], CylcertError],
        success: Callable[[Fraction, Fraction | None], bool],
        fallback_x: tuple[Fraction, ...] | None,
    ):
        n = target.shape.n
        self.target = target
        self.n = n
        self.blocks = blocks
        self.constraints = constraints
        self.domain = S_TIMES_SPHERE if constraints else SIMPLEX_TIMES_SPHERE
        self.witness_threshold = witness_threshold
        self.witness_strict = witness_strict
        self.witness_exc = witness_exc
        self.success = success
        self.fallback_x = fallback_x

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
        self.slack = _float_slack(reduced)

        self.used_x = _gradient_constant(reduced, range(n))
        self.used_sphere = tuple(_gradient_constant(reduced, kept) for kept in self.kept)

        # decompose the reduced target into x-coefficients per sphere
        # signature, as numerators over den, with the top degrees in x and in
        # each block's kept slots that put every term over one denominator
        self.kept_all = tuple(i for kept in self.kept for i in kept)
        self.den, cleared = reduced._ints
        sig_map: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for exp, num in cleared:
            sig_map.setdefault(tuple(exp[i] for i in self.kept_all), {})[exp[:n]] = num
        self.sigs = sorted(sig_map)
        self.sig_ints = [sorted(sig_map[s].items()) for s in self.sigs]
        self.sig_coeffs = [[(e, Fraction(a, self.den)) for e, a in terms] for terms in self.sig_ints]
        self.x_top = reduced.block_degree("x")
        self.u_parts: list[tuple[int, list[tuple[int, ...]]]] = []
        lo = 0
        for kept in self.kept:
            parts = [s[lo : lo + len(kept)] for s in self.sigs]
            self.u_parts.append((max(map(sum, parts), default=0), parts))
            lo += len(kept)

        # constraint data: term lists over x plus sound keep-thresholds
        self.g_terms = [_terms_on_slots(g, range(g.shape.n)) for g in constraints]
        self.g_lip = [_gradient_constant(g, range(g.shape.n)) for g in constraints]
        self.g_slack = [_float_slack(g) for g in constraints]

        # values per grid row of a block (coordinates, x power tables and a
        # work array; see _blocks), and the cover power tables (see _float_bytes)
        x_terms = [*reduced.terms, *(e for g in constraints for e in g.terms)]
        self.x_width = n + _row_width(x_terms, n)
        self.u_powers = sum(max(s[j] for s in self.sigs) + 1 for j in range(len(self.kept_all)))

        # work counts over all passes: grid x cover pairs, and those whose
        # float value was computed
        self.pairs = 0
        self.evaluated = 0

    # ----- exact evaluation ---------------------------------------------
    def _sample(
        self, x: tuple[Fraction, ...], reps: tuple[tuple[Fraction, ...], ...]
    ) -> SamplePoint:
        """The domain point (x, reps) with its exact value."""
        pt = [Fraction(0)] * self.target.shape.width
        for i, v in enumerate(x):
            pt[i] = v
        for b, rep in zip(self.blocks, reps):
            for slot, v in zip(b.indices, rep):
                pt[slot] = v
        u = tuple(v for rep in reps for v in rep)
        return SamplePoint(x=x, u=u, value=self.target.eval_at(pt))

    def _in_feasible_set(self, x: tuple[Fraction, ...]) -> bool:
        pad = (Fraction(0),) * (self.constraints[0].shape.width - len(x)) if self.constraints else ()
        return all(g.eval_at(tuple(x) + pad) >= 0 for g in self.constraints)

    def _is_witness_value(self, num: Fraction | int, den: int = 1) -> bool:
        """Whether ``num / den`` (``den`` > 0) is a witness value, compared
        without dividing."""
        t = self.witness_threshold
        lhs, rhs = num * t.denominator, t.numerator * den
        return lhs < rhs if self.witness_strict else lhs <= rhs

    # ----- main loop -----------------------------------------------------
    def run(self) -> CertifiedMin:
        res_x = START_RESOLUTION if self.x_top > 0 else 1
        res_b = [START_RESOLUTION] * len(self.blocks)
        lower: Fraction | None = None
        best: SamplePoint | None = None

        if self.fallback_x is not None:
            best = self._sample(
                self.fallback_x,
                tuple(
                    tuple(Fraction(0) for _ in b.indices[:-1]) + (Fraction(1),)
                    for b in self.blocks
                ),
            )
            if self._is_witness_value(best.value) and self._in_feasible_set(self.fallback_x):
                raise self.witness_exc(best)

        last_exhaust: dict[str, Any] = {}
        for depth in range(DEPTH_CAP + 1):
            pass_lb, samples, grid, covers = self._pass(res_x, res_b)
            if lower is None or pass_lb > lower:
                lower = pass_lb

            # witnesses and best-sample updates, from samples of S only
            for sample, in_s in samples:
                if in_s:
                    if best is None or sample.value < best.value:
                        best = sample
                    if self._is_witness_value(sample.value):
                        raise self.witness_exc(sample)

            if best is not None and self.success(lower, best.value):
                assert lower <= best.value
                return CertifiedMin(
                    lower_bound=lower,
                    best_sample=best,
                    grid_depth=depth,
                    used_x_constant=self.used_x,
                    used_sphere_constants=self.used_sphere,
                    domain=self.domain,
                    resolutions=(res_x, *res_b),
                    float_slack=self.slack,
                    pairs=self.pairs,
                    evaluated=self.evaluated,
                )

            # refine the factor with the largest current error term
            terms = [(self.used_x * grid.radius, -1)]
            for i, cov in enumerate(covers):
                terms.append((self.used_sphere[i] * cov.radius, i))
            err, which = max(terms, key=lambda t: t[0])
            last_exhaust = {
                "lower_bound": frac_to_str(lower),
                "best_value": None if best is None else frac_to_str(best.value),
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

    # ----- one pass --------------------------------------------------------
    def _covers(self, res_b: list[int]) -> list[ProjectedCover]:
        """The pass's sphere covers, projected onto the kept slots."""
        return [
            projected_sphere_cover(len(b.indices), res, tuple(b.indices.index(s) for s in kept))
            for b, kept, res in zip(self.blocks, self.kept, res_b)
        ]

    def _float_bytes(self, rows: int, n_u: int) -> int:
        """An estimate of the bytes of the arrays a pass builds.

        Counts, for ``rows`` grid points, the arrays that span the pass:
        the lattice (at 8 bytes a coordinate, an upper bound for its
        int32 entries), the kept-row indices (twice while their blocks
        are joined), the "in S" mask, ``amat``, the row bounds and the
        index and bound arrays that select rows by bound; for ``n_u``
        cover combinations: their coordinates with a copy, their power
        tables, ``bmat`` and one work row; and for one block of rows:
        ``BLOCK_VALUES`` values of power tables and work arrays, and the
        value chunk of :func:`_value_rows` with its product buffer and the
        masks and copies the pass takes of it.  The Python objects of a
        first-time :func:`projected_sphere_cover` and of exact values are
        left out.
        """
        per_row = self.n + len(self.sigs) + 4
        per_u = 2 * len(self.kept_all) + self.u_powers + len(self.sigs) + 1
        chunk = min(rows * n_u, max(n_u, BLOCK_VALUES))
        return 8 * (rows * per_row + n_u * per_u + 4 * chunk + 2 * BLOCK_VALUES)

    def _rows_in_s(self, grid: SimplexGrid) -> tuple[np.ndarray, np.ndarray]:
        """The grid rows the constraint screen keeps, and which of them lie in S.

        A row is kept when every g_i is at least minus its Lipschitz
        constant times the cell radius, less the float slack, so the kept
        cells cover S.  float64 decides whether a kept row lies in S when
        every g_i is at least its slack (in S) or some g_i lies below
        minus its slack (not in S); only the other rows are checked in
        exact arithmetic, so the mask is exact.  The grid is screened one
        block of rows at a time.
        """
        screens = [
            (terms, -_ceil_float(lip * grid.radius + slack), _ceil_float(slack))
            for terms, lip, slack in zip(self.g_terms, self.g_lip, self.g_slack)
        ]
        parts = []
        for blk in _blocks(len(grid), self.x_width):
            xf = grid.floats(blk)
            keep = np.ones(len(xf), dtype=bool)
            sure = np.ones(len(xf), dtype=bool)
            out = np.zeros(len(xf), dtype=bool)
            for terms, floor, bar in screens:
                vals = _float_eval(xf, terms)
                keep &= vals >= floor
                sure &= vals >= bar
                out |= vals < -bar
            idx = np.flatnonzero(keep)
            parts.append((idx + blk.start, sure[idx], out[idx]))
        rows, in_s, out = (np.concatenate(part) for part in zip(*parts))
        for pos in np.flatnonzero(~in_s & ~out):
            in_s[pos] = self._in_feasible_set(grid.point(int(rows[pos])))
        return rows, in_s

    def _pass(self, res_x: int, res_b: list[int]):
        """One pass (point 4 of the module docstring).

        Returns its lower bound, its exactly evaluated samples paired
        with their "in S" flags (witness candidates first, in value
        order, then the minimizers overall and in S), the grid and the
        covers.
        """
        grid_size = math.comb(res_x + self.n, self.n)
        covers = self._covers(res_b)
        n_u = math.prod(len(c) for c in covers)
        estimated = self._float_bytes(grid_size, n_u)
        if estimated > MEMORY_BUDGET:
            raise BudgetExhaustedError(
                "scan arrays exceed the memory budget",
                estimated_bytes=estimated,
                budget=MEMORY_BUDGET,
                resolutions=[res_x, *res_b],
            )

        grid = SimplexGrid(self.n, res_x)
        rows, in_s = self._rows_in_s(grid)
        if rows.size == 0:
            raise ResolutionExhaustedError(
                "no grid cell survives the constraint filter; the feasible set "
                "is thinner than the current grid",
                resolution=res_x,
            )
        if rows.size * n_u > PAIR_BUDGET:
            raise BudgetExhaustedError(
                "scan size exceeds the evaluation budget",
                rows=int(rows.size),
                sphere_points=n_u,
                budget=PAIR_BUDGET,
            )

        total_err = self.used_x * grid.radius + sum(
            (u * c.radius for u, c in zip(self.used_sphere, covers)), start=Fraction(0)
        )
        # witness-candidate cutoff in float terms (upper bound of the exact cut)
        cut = _ceil_float(self.witness_threshold + self.slack)
        exact = rows.size * n_u <= EXACT_PAIRS
        margin = self._near if exact else float

        amat, bmat = self._factors(grid, rows, covers)
        bound = _row_bounds(amat, bmat)

        def reach(among: np.ndarray) -> float:
            i = among[np.argmin(bound[among])]
            probe = float(next(_value_rows(amat, bmat, np.array([i])))[1].min())
            return max(margin(probe), cut)

        lim = reach(np.arange(len(rows)))
        keep = ~(bound > lim)
        lim_s = reach(np.flatnonzero(in_s)) if in_s.any() else -math.inf
        keep |= in_s & ~(bound > lim_s)
        kept = np.flatnonzero(keep)
        self.pairs += rows.size * n_u
        self.evaluated += kept.size * n_u

        # float minima overall and in S, and the pairs a result can need
        best = best_s = (math.inf, None)
        # an empty part first, so a pass that takes no pair still has arrays
        low_parts = [(np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))]
        for sel, block in _value_rows(amat, bmat, kept):
            i, j = divmod(int(np.argmin(block)), n_u)
            if block[i, j] < best[0]:
                best = (float(block[i, j]), (int(sel[i]), j))
            sl = in_s[sel]
            if sl.any():
                sub = block[sl]
                si, sj = divmod(int(np.argmin(sub)), n_u)
                if sub[si, sj] < best_s[0]:
                    best_s = (float(sub[si, sj]), (int(sel[np.flatnonzero(sl)[si]]), sj))
            take = block <= cut
            if exact:
                take |= (block <= lim) | (sl[:, None] & (block <= lim_s))
            if take.any():
                ii, jj = np.nonzero(take)
                vals = block[ii, jj]
                if not exact:
                    order = np.argsort(vals, kind="stable")[:WITNESS_CAP]
                    ii, jj, vals = ii[order], jj[order], vals[order]
                low_parts.append((vals, sel[ii], jj))
            # free this chunk before the generator builds the next one
            del block, take
        vals, pos, cols = (np.concatenate(part) for part in zip(*low_parts))

        if exact:
            pick = (vals <= cut) | (vals <= self._near(best[0]))
            if best_s[1] is not None:
                pick |= in_s[pos] & (vals <= self._near(best_s[0]))
            window = list(zip(pos[pick].tolist(), cols[pick].tolist()))
            value = dict(zip(window, self._exact_values(grid, rows, covers, window)))
            extras = (
                _first_min(window, value),
                _first_min([ij for ij in window if in_s[ij[0]]], value),
            )
            # int / int is correctly rounded, as float(Fraction) is
            picks = sorted(
                (ij for ij in window if self._is_witness_value(*value[ij])),
                key=lambda ij: value[ij][0] / value[ij][1],
            )[:WITNESS_CAP]
            lb = Fraction(*value[extras[0]]) - total_err
        else:
            order = np.argsort(vals, kind="stable")[:WITNESS_CAP]
            picks = list(zip(pos[order].tolist(), cols[order].tolist()))
            extras = (best[1], best_s[1])
            lb = Fraction(best[0]) - self.slack - total_err
        for ij in extras:
            if ij is not None and ij not in picks:
                picks.append(ij)
        if not exact:
            value = dict(zip(picks, self._exact_values(grid, rows, covers, picks)))
        samples = []
        for i, j in picks:
            u = tuple(v for rep in self._reps_at(covers, j) for v in rep)
            sample = SamplePoint(x=grid.point(int(rows[i])), u=u, value=Fraction(*value[i, j]))
            samples.append((sample, bool(in_s[i])))
        return lb, samples, grid, covers

    def _near(self, fmin: float) -> float:
        """Float value bound of every pair whose exact value is the exact minimum behind fmin."""
        return _ceil_float(Fraction(fmin) + 2 * self.slack)

    def _factors(
        self, grid: SimplexGrid, rows: np.ndarray, covers: Sequence[ProjectedCover]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The two float64 factors of the reduced target's value block.

        ``amat[i, k]`` is signature k's x-coefficient at grid row
        ``rows[i]`` and ``bmat[k, j]`` its sphere monomial at cover
        combination j, so the value at (i, j) is the sum over k of their
        products (see :func:`_value_rows`).  Columns enumerate the product
        of the covers' projected points with the first cover outermost
        (see :meth:`_reps_at`).  ``amat`` is filled one block of rows at a
        time, from float coordinates formed per block.
        """
        ucoords = _cover_product(covers)
        tables = _power_tables(ucoords, self.sigs)
        bmat = np.ones((len(self.sigs), ucoords.shape[0]))
        for k, sig in enumerate(self.sigs):
            _times_monomial(bmat[k], tables, sig)
        # the cover arrays are no longer needed while amat is built
        del ucoords, tables

        amat = np.empty((len(rows), len(self.sigs)))
        for blk in _blocks(len(rows), self.x_width):
            xf = grid.floats(rows[blk])
            for k, coeffs in enumerate(self.sig_coeffs):
                amat[blk, k] = _float_eval(xf, coeffs)
        return amat, bmat

    def _exact_values(
        self,
        grid: SimplexGrid,
        rows: np.ndarray,
        covers: Sequence[ProjectedCover],
        pairs: Sequence[tuple[int, int]],
    ) -> list[tuple[int, int]]:
        """Exact values of value-block pairs (i, j) as ``(numerator,
        denominator)``, the denominator positive (point 4 of the module
        docstring).

        The integer counterparts of :meth:`_factors`, one per distinct row
        and column.  Row i's factor for signature k is its x-part at the
        lattice integers of grid row ``rows[i]``, over ``K^x_top``; column
        j's is the signature's monomial at the covers' stored points, over
        each block's point denominator to the block's top signature degree.
        A pair's value is their dot product over ``den * K^x_top`` times the
        column's denominator.
        """
        res = grid.resolution
        row_factors = {}
        for i in {i for i, _ in pairs}:
            a = grid.lattice[rows[i]].tolist()
            row_factors[i] = [
                sum(
                    num * math.prod(map(pow, a, exp)) * res ** (self.x_top - sum(exp))
                    for exp, num in terms
                )
                for terms in self.sig_ints
            ]
        col_factors = {}
        for j in {j for _, j in pairs}:
            nums, den = [1] * len(self.sigs), 1
            for cov, idx, (top, parts) in zip(covers, _cover_indices(covers, j), self.u_parts):
                p, q = cov._points[idx]
                for k, part in enumerate(parts):
                    nums[k] *= math.prod(map(pow, p, part)) * q ** (top - sum(part))
                den *= q**top
            col_factors[j] = (nums, den)
        scale = self.den * res**self.x_top
        return [
            (sum(map(operator.mul, row_factors[i], col_factors[j][0])), scale * col_factors[j][1])
            for i, j in pairs
        ]

    @staticmethod
    def _reps_at(covers, j: int) -> tuple[tuple[Fraction, ...], ...]:
        """Sphere representatives of value-block column j (first cover outermost)."""
        return tuple(cov.representative(idx) for cov, idx in zip(covers, _cover_indices(covers, j)))


def _cover_indices(covers: Sequence[ProjectedCover], j: int) -> list[int]:
    """Each cover's point index in value-block column j (first cover outermost)."""
    out = []
    for cov in reversed(covers):
        j, idx = divmod(j, len(cov))
        out.append(idx)
    return out[::-1]


def _first_min(pairs: Sequence[tuple[int, int]], value: dict) -> tuple[int, int] | None:
    """The first of the pairs with the least exact value ``(numerator,
    denominator)``, denominators positive; None for no pairs."""
    best = None
    for ij in pairs:
        if best is None or value[ij][0] * value[best][1] < value[best][0] * value[ij][1]:
            best = ij
    return best


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def certified_cylinder_min(
    p: CylinderProblem,
    *,
    rel_slack: Fraction = Fraction(1, 1000),
    fallback_x: tuple[Fraction, ...] | None = None,
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

    def success(lb: Fraction, best: Fraction | None) -> bool:
        return lb > 0 and best is not None and best - lb <= rel_slack * best

    return _Scan(
        target=target,
        blocks=blocks,
        constraints=p.g,
        witness_threshold=Fraction(0),
        witness_strict=False,
        witness_exc=lambda s: NonpositiveWitnessError(
            "f is not positive on the cylinder", witness=s.to_obj()
        ),
        success=success,
        fallback_x=fallback_x,
    ).run()


def certified_excess_check(
    target: BlockedPoly,
    threshold: Fraction,
    blocks: tuple[SphereBlock, ...],
) -> CertifiedMin:
    """Certify min over the FULL simplex x sphere(s) >= threshold.

    Raises :class:`BelowThresholdError` with an exact witness when a
    domain point evaluates strictly below the threshold.
    """
    return _Scan(
        target=target,
        blocks=tuple(blocks),
        constraints=(),
        witness_threshold=threshold,
        witness_strict=True,
        witness_exc=lambda s: BelowThresholdError(
            "target dips below the required threshold on the domain",
            threshold=frac_to_str(threshold),
            witness=s.to_obj(),
        ),
        success=lambda lb, best: lb >= threshold,
        fallback_x=None,
    ).run()


def check_leading_form_condition(
    p: CylinderProblem,
    *,
    fallback_x: tuple[Fraction, ...] | None = None,
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
        out[name] = _Scan(
            target=form,
            blocks=blocks,
            constraints=p.g,
            witness_threshold=Fraction(0),
            witness_strict=False,
            witness_exc=lambda s, _name=name: IndefiniteConditionError(
                f"side condition fails: {_name} is not positive definite over S",
                condition=_name,
                witness=s.to_obj(),
            ),
            success=lambda lb, best: lb > 0,
            fallback_x=fallback_x,
        ).run()
    return out
