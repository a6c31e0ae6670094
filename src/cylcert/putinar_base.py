"""Base certificates: simplex facets as members of the constraint module.

After saturation the certificate needs every square-free product of the
facet polynomials ``x_1, ..., x_n`` and ``u = 1 - sum(x)`` written as

    sigma_0 + sum_i sigma_i * g_i        (all sigma SOS, x-variables only)

The full monomials ``u^(a0) x^alpha`` then follow by multiplying with
the square of ``u^(a0//2) x^(alpha//2)``.  There are ``2^(n+1)`` such
products and they do not depend on the target, so they are computed
eagerly and are good candidates for caching.

Each product is found by a joint Gram search: one PSD block per sigma,
an affine system tying the blocks to the product's coefficients, float
alternating projections to locate a feasible point, and an exact
rational re-projection with LDL^T checks to leave no numerical residue.
The degree budget for the sigmas doubles on failure up to a hard cap.

When the product vanishes at a simplex vertex that satisfies every
constraint, all feasible Gram matrices are singular there and the float
phase sits on the boundary of the PSD cone, where rounding cannot land
exactly.  Those forced null directions are evaluation vectors at the
vertex, so the bases are cut down in advance (facial reduction) and the
search runs on the reduced, interior-feasible system instead.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CapExceededError, SearchExhaustedError, ValidationError
from .poly import BlockedPoly, BlockShape
from .sos import (
    DEN_LADDER,
    TAU_LADDER,
    SosDecomposition,
    decomposition_from_gram,
    expand_identity,
)

Exponent = tuple[int, ...]
Parity = tuple[int, ...]

MAX_VARIABLES = 6
BUDGET_CAP = 16

# Alternating projections stall short of full tolerance when every
# feasible point sits on the boundary of the PSD cone.  Points this
# close are still worth handing to exact rounding, which can snap onto
# the boundary face; genuinely infeasible systems plateau far above.
SNAP_GAP = 1e-4


def parity_vector(alpha: Sequence[int]) -> Parity:
    """Componentwise parity of a monomial exponent vector."""
    return tuple(a % 2 for a in alpha)


def even_square_root(alpha: Sequence[int]) -> tuple[int, ...]:
    """Exponents of the square factor: alpha == 2*root + parity."""
    return tuple(a // 2 for a in alpha)


def facet_product(shape: BlockShape, parity: Parity) -> BlockedPoly:
    """``u^(p0) * prod x_i^(p_i)`` with ``u = 1 - sum(x)``, expanded.

    The parity vector is indexed ``(u, x_1, ..., x_n)``.
    """
    if len(parity) != shape.n + 1:
        raise ValidationError(
            "parity vector length must be one more than the number of "
            "cylinder variables"
        )
    if any(p not in (0, 1) for p in parity):
        raise ValidationError("parity entries must be 0 or 1")
    out = BlockedPoly.constant(shape, 1)
    if parity[0]:
        u = BlockedPoly.constant(shape, 1)
        for i in shape.block_indices("x"):
            u = u - BlockedPoly.variable(shape, i)
        out = out * u
    for p, i in zip(parity[1:], shape.block_indices("x")):
        if p:
            out = out * BlockedPoly.variable(shape, i)
    return out


@dataclass(frozen=True)
class ModuleWitness:
    """Exact decomposition target = sigma_0 + sum sigma_i * g_i."""

    target: BlockedPoly
    sigma0: SosDecomposition
    multipliers: tuple[tuple[int, SosDecomposition], ...]
    budget: int

    def as_poly(self, gens: Sequence[BlockedPoly]) -> BlockedPoly:
        return expand_identity(
            self.sigma0, ((sos, gens[idx]) for idx, sos in self.multipliers)
        )

    def verify(self, gens: Sequence[BlockedPoly]) -> bool:
        return self.as_poly(gens) == self.target


def _monomials_up_to(shape: BlockShape, degree: int) -> list[BlockedPoly]:
    """x-only monomials of total degree <= degree, as polynomials."""
    n, width = shape.n, shape.width
    exponents = []
    for total in range(degree + 1):
        for alpha in itertools.product(range(total + 1), repeat=n):
            if sum(alpha) == total:
                exponents.append(tuple(alpha) + (0,) * (width - n))
    return [BlockedPoly(shape, {e: Fraction(1)}) for e in sorted(exponents)]


Basis = tuple[BlockedPoly, ...]


def default_bases(
    shape: BlockShape, gens: Sequence[BlockedPoly], budget: int
) -> list[tuple[int | None, Basis]]:
    """One monomial basis per sigma block, degree-capped by the budget."""
    out: list[tuple[int | None, Basis]] = [
        (None, tuple(_monomials_up_to(shape, budget // 2)))
    ]
    for idx, g in enumerate(gens):
        room = budget - g.block_degree("x")
        if room >= 0:
            out.append((idx, tuple(_monomials_up_to(shape, room // 2))))
    return out


class _JointGram:
    """The affine system for one (generators, budget) pair.

    Reused across parity products: only the right-hand side changes.
    Basis elements are arbitrary polynomials so that facially reduced
    systems run through the same machinery.
    """

    def __init__(
        self,
        shape: BlockShape,
        gens: Sequence[BlockedPoly],
        budget: int,
        bases: Sequence[tuple[int | None, Basis]] | None = None,
    ):
        self.shape = shape
        self.budget = budget
        if bases is None:
            bases = default_bases(shape, gens, budget)
        self.blocks: list[tuple[int | None, Basis]] = [
            (gen_idx, tuple(basis)) for gen_idx, basis in bases if basis
        ]

        self.entries: list[tuple[int, int, int]] = []
        self.weights: list[int] = []
        for b, (_gen, basis) in enumerate(self.blocks):
            for j in range(len(basis)):
                for k in range(j, len(basis)):
                    self.entries.append((b, j, k))
                    self.weights.append(1 if j == k else 2)

        # Sparse columns: entry -> [(row, coefficient)] over all monomials
        # the entry can produce.
        row_of: dict[Exponent, int] = {}
        cols: list[list[tuple[int, Fraction]]] = []
        for b, j, k in self.entries:
            gen_idx, basis = self.blocks[b]
            mult = Fraction(self.weights[len(cols)])
            piece = basis[j] * basis[k]
            if gen_idx is not None:
                piece = piece * gens[gen_idx]
            col: dict[int, Fraction] = {}
            for mono, c in piece.terms.items():
                row = row_of.setdefault(mono, len(row_of))
                col[row] = col.get(row, Fraction(0)) + mult * c
            cols.append(sorted(col.items()))
        self.row_of = row_of
        self.cols = cols

        n_rows, n_cols = len(row_of), len(cols)
        a = np.zeros((n_rows, n_cols), dtype=np.float64)
        for e, col in enumerate(cols):
            for row, value in col:
                a[row, e] = float(value)
        w_inv = 1.0 / np.asarray(self.weights, dtype=np.float64)
        self.a = a
        self.w_inv = w_inv
        self.aw = a * w_inv[None, :]          # A W^-1
        self.pinv_awa = np.linalg.pinv(self.aw @ a.T)

        # Exact normal matrix M = A W^-1 A^T for the rational projection.
        m = [[Fraction(0)] * n_rows for _ in range(n_rows)]
        for e, col in enumerate(cols):
            inv_w = Fraction(1, self.weights[e])
            for r1, v1 in col:
                for r2, v2 in col:
                    if r2 >= r1:
                        m[r1][r2] += v1 * v2 * inv_w
        for r1 in range(n_rows):
            for r2 in range(r1):
                m[r1][r2] = m[r2][r1]
        self.m_exact = m

    # -- right-hand sides ----------------------------------------------
    def rhs(self, target: BlockedPoly) -> list[Fraction] | None:
        """Target coefficients in row order; None when unreachable."""
        b = [Fraction(0)] * len(self.row_of)
        for mono, c in target.terms.items():
            row = self.row_of.get(mono)
            if row is None:
                return None
            b[row] = c
        return b

    # -- float phase ----------------------------------------------------
    def _affine_project(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        return x + (self.aw.T @ (self.pinv_awa @ (b - self.a @ x)))

    def _psd_project(self, x: np.ndarray, tau: float) -> np.ndarray:
        out = x.copy()
        offset = 0
        for _gen, basis in self.blocks:
            dim = len(basis)
            count = dim * (dim + 1) // 2
            mat = np.zeros((dim, dim))
            pos = offset
            for j in range(dim):
                for k in range(j, dim):
                    mat[j, k] = mat[k, j] = x[pos]
                    pos += 1
            vals, vecs = np.linalg.eigh(mat)
            mat = (vecs * np.clip(vals, tau, None)) @ vecs.T
            pos = offset
            for j in range(dim):
                for k in range(j, dim):
                    out[pos] = mat[j, k]
                    pos += 1
            offset += count
        return out

    def float_search(
        self, b: np.ndarray, *, max_iterations: int, tolerance: float
    ) -> np.ndarray | None:
        """Alternating projections toward an affine-and-PSD point.

        Returns the converged point, or the best near-feasible point
        seen when it lies within :data:`SNAP_GAP` (boundary-feasible
        systems stall there), or None when clearly infeasible.
        """
        per_tau = max(1, max_iterations // len(TAU_LADDER))
        scale = max(1.0, float(np.max(np.abs(b))))
        x = self._affine_project(np.zeros(self.a.shape[1]), b)
        best_gap = np.inf
        best_x = x
        for tau in TAU_LADDER:
            best = np.inf
            idle = 0
            for _ in range(per_tau):
                y = self._psd_project(x, float(tau))
                gap = float(np.max(np.abs(y - x)))
                x = self._affine_project(y, b)
                if gap < tolerance * scale:
                    return x
                if gap < best_gap:
                    best_gap = gap
                    best_x = x
                if gap < best * 0.999:
                    best = gap
                    idle = 0
                else:
                    idle += 1
                    if idle > 300:
                        break
        if best_gap <= SNAP_GAP * scale:
            return best_x
        return None

    # -- exact phase ----------------------------------------------------
    def _solve_exact(self, rhs: list[Fraction]) -> list[Fraction] | None:
        """Solve M y = rhs in rationals; None when inconsistent."""
        dim = len(rhs)
        m = [row[:] + [rhs[i]] for i, row in enumerate(self.m_exact)]
        piv_rows: list[int] = []
        piv_cols: list[int] = []
        used: set[int] = set()
        for col in range(dim):
            sel = None
            for r in range(dim):
                if r not in used and m[r][col] != 0:
                    if sel is None or abs(m[r][col]) > abs(m[sel][col]):
                        sel = r
            if sel is None:
                continue
            used.add(sel)
            piv_rows.append(sel)
            piv_cols.append(col)
            inv = 1 / m[sel][col]
            for r in range(dim):
                if r != sel and m[r][col] != 0:
                    factor = m[r][col] * inv
                    for c in range(col, dim + 1):
                        m[r][c] -= factor * m[sel][c]
        for r in range(dim):
            if r not in used and m[r][dim] != 0:
                return None
        y = [Fraction(0)] * dim
        for r, c in zip(piv_rows, piv_cols):
            y[c] = m[r][dim] / m[r][c]
        return y

    def exact_correction(
        self, x: list[Fraction], b: list[Fraction]
    ) -> list[Fraction] | None:
        """Project a rational point exactly onto the affine set."""
        residual = b[:]
        for e, col in enumerate(self.cols):
            if x[e]:
                for row, v in col:
                    residual[row] -= v * x[e]
        y = self._solve_exact(residual)
        if y is None:
            return None
        out = x[:]
        for e, col in enumerate(self.cols):
            delta = Fraction(0)
            for row, v in col:
                if y[row]:
                    delta += v * y[row]
            if delta:
                out[e] += delta / self.weights[e]
        return out

    def grams_from_vector(self, x: Sequence[Fraction]) -> list[list[list[Fraction]]]:
        grams = []
        pos = 0
        for _gen, basis in self.blocks:
            dim = len(basis)
            g = [[Fraction(0)] * dim for _ in range(dim)]
            for j in range(dim):
                for k in range(j, dim):
                    g[j][k] = g[k][j] = x[pos]
                    pos += 1
            grams.append(g)
        return grams


def _simplex_vertices(shape: BlockShape) -> list[tuple[Fraction, ...]]:
    zero = (Fraction(0),) * shape.width
    out = [zero]
    for i in shape.block_indices("x"):
        point = list(zero)
        point[i] = Fraction(1)
        out.append(tuple(point))
    return out


def _eliminate_at_points(
    basis: Basis, points: Sequence[tuple[Fraction, ...]]
) -> Basis:
    """Cut the span down to polynomials vanishing at every given point."""
    out = list(basis)
    for point in points:
        values = [q.eval_at(point) for q in out]
        pivot = next((j for j, v in enumerate(values) if v != 0), None)
        if pivot is None:
            continue
        out = [
            out[j] - out[pivot].scale(values[j] / values[pivot])
            for j in range(len(out))
            if j != pivot
        ]
    return tuple(out)


def reduced_bases(
    shape: BlockShape,
    gens: Sequence[BlockedPoly],
    budget: int,
    target: BlockedPoly,
) -> list[tuple[int | None, Basis]] | None:
    """Facial reduction at simplex vertices where the target vanishes.

    At a vertex satisfying every constraint, all terms of the would-be
    decomposition are nonnegative, so a vanishing target forces sigma_0
    (and every sigma_i whose generator is strictly positive there) to
    vanish as well: their Gram matrices annihilate the evaluation
    vector.  Restricting each basis accordingly loses no solutions and
    restores strict feasibility in the common degenerate cases.  Returns
    None when no vertex forces anything.
    """
    vertices = [
        v
        for v in _simplex_vertices(shape)
        if target.eval_at(v) == 0 and all(g.eval_at(v) >= 0 for g in gens)
    ]
    if not vertices:
        return None
    out: list[tuple[int | None, Basis]] = []
    changed = False
    for gen_idx, basis in default_bases(shape, gens, budget):
        points = [
            v
            for v in vertices
            if gen_idx is None or gens[gen_idx].eval_at(v) > 0
        ]
        cut = _eliminate_at_points(basis, points)
        changed = changed or len(cut) != len(basis)
        out.append((gen_idx, cut))
    return out if changed else None


def module_membership(
    target: BlockedPoly,
    gens: Sequence[BlockedPoly],
    budget: int,
    *,
    system: _JointGram | None = None,
    max_iterations: int = 20_000,
    tolerance: float = 1e-9,
) -> ModuleWitness | None:
    """One budget attempt at target = sigma_0 + sum sigma_i g_i."""
    if target.block_degree("x") != target.total_degree():
        raise ValidationError("module membership targets must use x variables only")
    shape = target.shape
    bases = reduced_bases(shape, gens, budget, target)
    if bases is not None:
        sys_ = _JointGram(shape, gens, budget, bases=bases)
    else:
        sys_ = system or _JointGram(shape, gens, budget)
    if not sys_.entries:
        return None
    b_exact = sys_.rhs(target)
    if b_exact is None:
        return None
    b_float = np.asarray([float(v) for v in b_exact], dtype=np.float64)
    x_float = sys_.float_search(
        b_float, max_iterations=max_iterations, tolerance=tolerance
    )
    if x_float is None:
        return None
    for den in DEN_LADDER:
        x_round = [Fraction(round(v * den), den) for v in x_float]
        x_exact = sys_.exact_correction(x_round, b_exact)
        if x_exact is None:
            return None
        decos = []
        for (gen_idx, basis), gram in zip(
            sys_.blocks, sys_.grams_from_vector(x_exact)
        ):
            deco = decomposition_from_gram(shape, basis, gram)
            if deco is None:
                break
            decos.append((gen_idx, deco))
        else:
            sigma0 = next(
                (deco for gen_idx, deco in decos if gen_idx is None),
                SosDecomposition(shape, (), (), (), ()),
            )
            witness = ModuleWitness(
                target=target,
                sigma0=sigma0,
                multipliers=tuple(
                    (idx, deco)
                    for idx, deco in decos
                    if idx is not None and deco.weights
                ),
                budget=budget,
            )
            if witness.verify(gens):
                return witness
    return None


def budget_ladder(gens: Sequence[BlockedPoly], cap: int = BUDGET_CAP) -> list[int]:
    start = max(2, 2 * max(g.block_degree("x") for g in gens))
    out = []
    budget = start
    while budget <= cap:
        out.append(budget)
        budget *= 2
    return out


def base_certificates(
    shape: BlockShape,
    gens: Sequence[BlockedPoly],
    *,
    budget_cap: int = BUDGET_CAP,
    max_iterations: int = 20_000,
    tolerance: float = 1e-9,
    precomputed: dict[Parity, ModuleWitness] | None = None,
) -> dict[Parity, ModuleWitness]:
    """Module decompositions for every square-free facet product.

    ``precomputed`` entries (from a cache) are re-verified and reused;
    anything missing or failing verification is recomputed.  Raises
    :class:`SearchExhaustedError` when some product resists every budget
    up to the cap, and :class:`CapExceededError` when the eager
    ``2^(n+1)`` enumeration itself is too large.
    """
    if shape.n > MAX_VARIABLES:
        raise CapExceededError(
            "eager facet certificates are limited to few cylinder variables",
            n=shape.n,
            max_variables=MAX_VARIABLES,
        )
    ladder = budget_ladder(gens, budget_cap)
    systems: dict[int, _JointGram] = {}
    out: dict[Parity, ModuleWitness] = {}
    failed: list[Parity] = []
    for parity in itertools.product((0, 1), repeat=shape.n + 1):
        cached = (precomputed or {}).get(parity)
        if cached is not None and cached.verify(gens):
            out[parity] = cached
            continue
        target = facet_product(shape, parity)
        witness = None
        for budget in ladder:
            if budget not in systems:
                systems[budget] = _JointGram(shape, gens, budget)
            witness = module_membership(
                target, gens, budget,
                system=systems[budget],
                max_iterations=max_iterations,
                tolerance=tolerance,
            )
            if witness is not None:
                break
        if witness is None:
            failed.append(parity)
        else:
            out[parity] = witness
    if failed:
        raise SearchExhaustedError(
            "some facet products admit no module decomposition within "
            "the degree budget",
            parities=[list(p) for p in failed],
            budgets=ladder,
        )
    return out
