"""Sum-of-squares decompositions with exact rational output.

Every sigma in a certificate comes from one search, :func:`module_witness`:
find ``target = sigma_0 + sum sigma_i * g_i`` with every sigma read off a
PSD Gram matrix.  A :class:`GramSystem` holds one Gram block per sigma,
each over its own basis (monomials, or arbitrary polynomials for
facially reduced systems) and optionally multiplied by a generator, and
the sparse affine system tying the blocks to a target's coefficients.
The classic round-then-project scheme then runs on it:

1. :func:`psd_feasibility` alternates in float64 between the affine set
   and the cone ``{every block >= tau I}``, walking ``tau`` down a
   ladder until the two sets meet.  A rung is left once it stops
   improving, once its gap has not halved over a quarter of the rung's
   budget (two disjoint sets stall at their positive distance, and at
   that rate the rest of the rung cannot reach the tolerance), or as
   soon as a step returns the previous point bit for bit, since every
   later step of the rung would repeat it.  Blocks of one size are
   projected with one stacked call of the LAPACK gufunc behind
   ``np.linalg.eigh``, in its error state entered once per search; a
   failed eigensolve or a float image that overflows fails the search.
2. :func:`module_witness` rounds that point to each denominator of a
   power-of-two ladder, re-imposes the coefficient constraints
   *exactly* (a rational solve of the normal equations), and factors
   every block with :func:`rational_ldlt`.  The system comes from a
   memo keyed on shape, generators and bases, so every target with the
   same bases reuses it, and its exact solve records the Gauss-Jordan
   elimination once: each right-hand side is then one rational
   matrix-vector product.
3. The first rung whose blocks all factor and whose identity expands
   exactly to the target is the answer: no residual, no trust in floats.
   It is the tuple ``(sigma_0, sigma_1, ..., sigma_s)``, one entry per
   generator after sigma_0 and empty where no basis was given, the shape
   in which facet witnesses and certificates store their sigmas.

Monomial bases come from one sorted enumerator, :func:`monomials`.
:func:`sos_decompose` is the search with no generators over
:func:`default_gram_basis` (the halved exponent box of the target), used
for coefficient forms and the d = 0 shortcut; :mod:`cylcert.putinar_base`
runs it once per facet product over x-only bases.  Targets outside the
cone make step 1 stall at a positive residual; :func:`sos_decompose`
reports that as :class:`SosStalledError` rather than papering over it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import CapExceededError, SosStalledError
from .poly import BlockedPoly, BlockShape, ExactSum, SosDecomposition, expand_identity

Exponent = tuple[int, ...]
Basis = Sequence["Exponent | BlockedPoly"]
SparseRow = list[tuple[int, int]]

TAU_LADDER = (Fraction(1, 64), Fraction(1, 1024), Fraction(1, 65536), Fraction(1, 2**24), Fraction(0))
DEN_LADDER = tuple(2**k for k in (4, 8, 12, 16, 20, 24, 28, 32))
GRAM_BASIS_CAP = 16
MAX_ITERATIONS = 20_000
TOLERANCE = 1e-9

# Alternating projections stall short of full tolerance when every
# feasible point sits on the boundary of the PSD cone.  Points this
# close are still worth handing to exact rounding, which can snap onto
# the boundary face; genuinely infeasible systems plateau far above.
SNAP_GAP = 1e-4

# The LAPACK gufunc that np.linalg.eigh calls for float64 input, without
# the wrapper's per-call checks, conversions and error-state switch:
# psd_feasibility enters that error state once per search instead.
_eigh_lo = _umath_linalg.eigh_lo


def _search_failed(_err: str, _flag: int) -> None:
    raise LinAlgError("the float search met a failed eigensolve or a non-finite value")


def _as_float(v: Fraction) -> float:
    """``float(v)``, or an infinity of v's sign where that overflows."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


# ---------------------------------------------------------------------------
# exact LDL^T
# ---------------------------------------------------------------------------

def rational_ldlt(
    gram: Sequence[Sequence[Fraction]],
) -> tuple[tuple[int, ...], list[Fraction], list[list[Fraction]]] | None:
    """Factor a symmetric PSD matrix as P G P^T = L D L^T, exactly.

    Pivots greedily on the largest remaining diagonal entry.  Returns
    ``(perm, diag, lower)`` with unit lower-triangular ``lower``, or
    ``None`` when a negative pivot (or a zero pivot with a nonzero row)
    certifies that the matrix is not PSD.
    """
    dim = len(gram)
    a = [[Fraction(v) for v in row] for row in gram]
    perm = list(range(dim))
    lower = [[Fraction(0)] * dim for _ in range(dim)]
    diag: list[Fraction] = [Fraction(0)] * dim
    for k in range(dim):
        pivot = max(range(k, dim), key=lambda i: a[i][i])
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            for row in a:
                row[k], row[pivot] = row[pivot], row[k]
            perm[k], perm[pivot] = perm[pivot], perm[k]
            lower[k], lower[pivot] = lower[pivot], lower[k]
        d = a[k][k]
        if d < 0:
            return None
        if d == 0:
            # PSD forces the whole row to vanish
            if any(a[k][j] != 0 for j in range(k, dim)):
                return None
            lower[k][k] = Fraction(1)
            continue
        diag[k] = d
        lower[k][k] = Fraction(1)
        for i in range(k + 1, dim):
            factor = a[i][k] / d
            lower[i][k] = factor
            for j in range(k, dim):
                a[i][j] -= factor * a[k][j]
    return tuple(perm), diag, lower


# ---------------------------------------------------------------------------
# the Gram system
# ---------------------------------------------------------------------------

def _basis_poly(shape: BlockShape, base: "Exponent | BlockedPoly") -> BlockedPoly:
    return base if isinstance(base, BlockedPoly) else BlockedPoly.monomial(shape, base)


class GramSystem:
    """The affine system of one Gram block per sigma.

    ``bases`` pairs a generator index (``None`` for sigma_0) with that
    block's basis; empty bases are dropped.  The unknowns are the upper
    triangles of the blocks, entry ``(b, j, k)`` weighted 1 on the
    diagonal and 2 off it, so the weighted norm is the Frobenius norm.
    Only the right-hand side depends on the target, so one system serves
    every target with the same bases.
    """

    def __init__(
        self,
        shape: BlockShape,
        gens: Sequence[BlockedPoly],
        bases: Sequence[tuple[int | None, Basis]],
    ):
        self.shape = shape
        self.blocks: list[tuple[int | None, tuple]] = [
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
        polys = [[_basis_poly(shape, q) for q in basis] for _gen, basis in self.blocks]
        row_of: dict[Exponent, int] = {}
        cols: list[list[tuple[int, Fraction]]] = []
        for b, j, k in self.entries:
            gen_idx = self.blocks[b][0]
            mult = Fraction(self.weights[len(cols)])
            piece = polys[b][j] * polys[b][k]
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
                a[row, e] = _as_float(value)
        w_inv = 1.0 / np.asarray(self.weights, dtype=np.float64)
        self.a = a
        self.aw = a * w_inv[None, :]          # A W^-1
        with np.errstate(over="ignore", invalid="ignore"):
            awa = self.aw @ a.T
        # None when the float image overflows or LAPACK cannot take its
        # pseudo-inverse: the float search then fails at once.
        self.pinv_awa: np.ndarray | None = None
        if np.isfinite(awa).all():
            try:
                self.pinv_awa = np.linalg.pinv(awa)
            except LinAlgError:
                pass

        # Blocks of one size share one stacked eigensolve.  Per size: the
        # (blocks, dim, dim) index into x that gathers the symmetric stack,
        # the blocks' positions in x, flattened, and the matching flat
        # index into the projected stack that reads their upper triangles.
        positions: dict[int, list[np.ndarray]] = {}
        offset = 0
        for _gen, basis in self.blocks:
            dim = len(basis)
            count = dim * (dim + 1) // 2
            positions.setdefault(dim, []).append(np.arange(offset, offset + count))
            offset += count
        self.psd_groups = []
        for dim, pos in positions.items():
            upper_j, upper_k = np.triu_indices(dim)
            entry = np.empty((dim, dim), dtype=np.intp)
            entry[upper_j, upper_k] = entry[upper_k, upper_j] = np.arange(len(upper_j))
            stack = np.stack(pos)
            pick = np.arange(len(pos))[:, None] * (dim * dim) + (upper_j * dim + upper_k)
            self.psd_groups.append((stack[:, entry], stack.ravel(), pick.ravel()))

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

    def rhs(self, target: BlockedPoly) -> list[Fraction] | None:
        """Target coefficients in row order; None when unreachable."""
        b = [Fraction(0)] * len(self.row_of)
        for mono, c in target.terms.items():
            row = self.row_of.get(mono)
            if row is None:
                return None
            b[row] = c
        return b

    # -- float projections ----------------------------------------------
    def project_affine(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        return x + (self.aw.T @ (self.pinv_awa @ (b - self.a @ x)))

    def project_psd(self, x: np.ndarray, tau: float) -> np.ndarray:
        """Clip every block's eigenvalues at ``tau``.

        A failed eigensolve raises :class:`LinAlgError` inside
        :func:`psd_feasibility`; elsewhere it gives NaN and a warning.
        """
        out = np.empty_like(x)
        for gather, scatter, pick in self.psd_groups:
            vals, vecs = _eigh_lo(x[gather], signature="d->dd")
            np.maximum(vals, tau, out=vals)
            mats = (vecs * vals[:, None, :]) @ vecs.transpose(0, 2, 1)
            out[scatter] = mats.take(pick)
        return out

    # -- exact phase ----------------------------------------------------
    @cached_property
    def _elimination(self) -> tuple[list[tuple[int, SparseRow, int]], list[SparseRow]]:
        """Gauss-Jordan on M, recorded once as ``(solve rows, null rows)``.

        The pivots depend on M alone, so the steps run once on ``[M | I]``
        and leave E, the product of the steps, in the right half; every
        right-hand side is then one product with E.  Pivot row r of column
        c gives unknown c as ``E[r] . rhs / M'[r][c]``: a solve row
        ``(c, E[r], M'[r][c])``.  A row that no pivot used is zero in M',
        so ``E[r] . rhs`` must vanish: a null row.  Each row of ``[M | I]``
        is held as integers over one positive denominator, so a step is
        integer arithmetic and one gcd, and the pivot is still the first
        row of largest ``|M'[r][c]|``.  Solve rows keep E[r] and the pivot
        over the same denominator; rows are sparse ``(column, value)``.
        """
        dim = len(self.m_exact)
        rows: list[tuple[list[int], int]] = []
        for i, m_row in enumerate(self.m_exact):
            den = math.lcm(*(v.denominator for v in m_row))
            nums = [v.numerator * (den // v.denominator) for v in m_row] + [0] * dim
            nums[dim + i] = den
            rows.append((nums, den))
        pivots: list[tuple[int, int]] = []
        used: set[int] = set()
        for col in range(dim):
            sel = None
            for r in range(dim):
                if r not in used and rows[r][0][col]:
                    if sel is None or (
                        abs(rows[r][0][col]) * rows[sel][1] > abs(rows[sel][0][col]) * rows[r][1]
                    ):
                        sel = r
            if sel is None:
                continue
            used.add(sel)
            pivots.append((sel, col))
            piv_nums = rows[sel][0]
            p = piv_nums[col]
            for r in range(dim):
                nums, den = rows[r]
                f = nums[col]
                if r != sel and f:
                    # nums/den - (f/p) piv_nums/den = (p nums - f piv_nums) / (p den)
                    new = [p * a - f * b for a, b in zip(nums, piv_nums)]
                    new_den = p * den
                    g = math.gcd(new_den, *new) * (1 if p > 0 else -1)
                    rows[r] = ([v // g for v in new], new_den // g)

        def e_row(r: int) -> SparseRow:
            return [(k, v) for k, v in enumerate(rows[r][0][dim:]) if v]

        solve_rows = [(col, e_row(r), rows[r][0][col]) for r, col in pivots]
        null_rows = [e_row(r) for r in range(dim) if r not in used]
        return solve_rows, null_rows

    def _solve_exact(self, rhs: list[Fraction]) -> list[Fraction] | None:
        """Solve M y = rhs in rationals; None when inconsistent."""
        solve_rows, null_rows = self._elimination
        den = math.lcm(*(v.denominator for v in rhs))
        nums = [v.numerator * (den // v.denominator) for v in rhs]
        for row in null_rows:
            if sum(v * nums[k] for k, v in row):
                return None
        y = [Fraction(0)] * len(rhs)
        for col, row, pivot in solve_rows:
            y[col] = Fraction(sum(v * nums[k] for k, v in row), pivot * den)
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


def psd_feasibility(system: GramSystem, b: np.ndarray) -> np.ndarray | None:
    """Alternating projections toward an affine-and-PSD point.

    Walks :data:`TAU_LADDER`, abandoning a rung once it stops improving
    (300 idle steps), once its gap has not halved over the last quarter
    of the rung's steps (the remaining three quarters could halve it at
    most three more times at that rate, far short of the tolerance), or
    at an exact fixed point: a step whose affine point equals the
    previous one bit for bit.  From there each step of the rung would
    repeat the same one, so leaving early returns the same point as
    running the rung out.  Returns the converged point, or
    the best near-feasible point seen when it lies within
    :data:`SNAP_GAP` (boundary-feasible systems stall there), or None
    when clearly infeasible.  A system or target whose float image is
    not finite, a failed eigensolve and a NaN met on the way also give
    None: the search runs in ``np.linalg.eigh``'s error state, entered
    once here rather than once per eigensolve.
    """
    if system.pinv_awa is None or not np.isfinite(b).all():
        return None
    try:
        with np.errstate(call=_search_failed, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            return _alternate(system, b)
    except LinAlgError:
        return None


def _alternate(system: GramSystem, b: np.ndarray) -> np.ndarray | None:
    """The loop of :func:`psd_feasibility`."""
    per_tau = MAX_ITERATIONS // len(TAU_LADDER)
    window = per_tau // 4
    scale = max(1.0, float(np.abs(b).max()))
    x = system.project_affine(np.zeros(len(system.entries)), b)
    best_gap = np.inf
    best_x = x
    for rung in TAU_LADDER:
        tau = float(rung)
        best = np.inf
        idle = 0
        gaps = []
        for step in range(per_tau):
            y = system.project_psd(x, tau)
            gap = float(np.abs(y - x).max())
            x_prev, x = x, system.project_affine(y, b)
            if gap < TOLERANCE * scale:
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
            gaps.append(gap)
            if step >= window and gap > gaps[step - window] / 2:
                # Not halved in a quarter of the budget: at that rate the
                # rest of the rung halves it at most three more times.
                break
            if (x == x_prev).all():
                # Each later step of this rung would repeat this one and
                # change nothing until the idle rule ends the rung.
                break
    if best_gap <= SNAP_GAP * scale:
        return best_x
    return None


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def decomposition_from_gram(
    shape: BlockShape,
    basis: Basis,
    gram: Sequence[Sequence[Fraction]],
) -> SosDecomposition | None:
    """Turn an exact Gram matrix into weighted squares via LDL^T.

    ``None`` means the matrix is not PSD.
    """
    fact = rational_ldlt(gram)
    if fact is None:
        return None
    perm, diag, lower = fact
    one = BlockedPoly.constant(shape, 1)
    weights = []
    squares = []
    for k, d in enumerate(diag):
        if d == 0:
            continue
        combo = ExactSum(shape)
        for i in range(k, len(basis)):
            if lower[i][k]:
                combo.add_product(lower[i][k], _basis_poly(shape, basis[perm[i]]), one)
        weights.append(d)
        squares.append(combo.poly())
    return SosDecomposition(shape, tuple(weights), tuple(squares))


# ---------------------------------------------------------------------------
# the one module search and its bases
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _gram_system(
    shape: BlockShape,
    gens: tuple[BlockedPoly, ...],
    bases: tuple[tuple[int | None, tuple], ...],
) -> GramSystem:
    """One :class:`GramSystem` per distinct basis set, shared by its targets."""
    return GramSystem(shape, gens, bases)


def module_witness(
    target: BlockedPoly,
    gens: Sequence[BlockedPoly],
    bases: Sequence[tuple[int | None, Basis]],
) -> tuple[SosDecomposition, ...] | None:
    """Exact ``target = sigma_0 + sum sigma_i * g_i`` over the given bases.

    ``bases`` pairs a generator index (``None`` for sigma_0) with a
    basis, as for :class:`GramSystem`.  Runs the float search once, then
    for each denominator of :data:`DEN_LADDER` rounds the point, projects
    it exactly onto the affine set and factors every block; the first
    rung whose identity expands to the target gives the tuple
    ``(sigma_0, sigma_1, ..., sigma_s)``, one entry per generator after
    sigma_0, empty where no basis was given; blocks with the same index
    add their squares to one sigma, in block order.  None when the bases
    cannot produce the target, the search fails, or no rung verifies.
    """
    system = _gram_system(
        target.shape, tuple(gens), tuple((idx, tuple(basis)) for idx, basis in bases)
    )
    b = system.rhs(target)
    if b is None:
        return None
    x_float = psd_feasibility(system, np.asarray([_as_float(v) for v in b], dtype=np.float64))
    if x_float is None:
        return None
    for den in DEN_LADDER:
        x_exact = system.exact_correction([Fraction(round(v * den), den) for v in x_float], b)
        if x_exact is None:
            return None
        sigmas = [SosDecomposition(target.shape, (), ())] * (len(gens) + 1)
        for (gen_idx, basis), gram in zip(system.blocks, system.grams_from_vector(x_exact)):
            deco = decomposition_from_gram(system.shape, basis, gram)
            if deco is None:
                break
            i = 0 if gen_idx is None else gen_idx + 1
            sigmas[i] = SosDecomposition(
                target.shape, sigmas[i].weights + deco.weights, sigmas[i].squares + deco.squares
            )
        else:
            if expand_identity(sigmas[0], zip(sigmas[1:], gens)) == target:
                return tuple(sigmas)
    return None


def monomials(box: Sequence[int], top: int, *, exact: bool = False) -> list[Exponent]:
    """Exponents at most ``box`` slot by slot, of total degree at most ``top``.

    With ``exact`` only total degree ``top`` is kept.  Built slot by slot
    with ascending entries, so the list is in sorted order.
    """
    out: list[Exponent] = [()]
    for side in box:
        out = [e + (v,) for e in out for v in range(side + 1) if sum(e) + v <= top]
    return [e for e in out if not exact or sum(e) == top]


def default_gram_basis(target: BlockedPoly) -> list[Exponent]:
    """Monomial basis covering every possible square support of a nonzero target.

    Uses the componentwise-halved exponent box intersected with the
    halved total degree; when the target is homogeneous the basis keeps
    only the matching half degree.  Sizes beyond ``GRAM_BASIS_CAP`` raise
    :class:`CapExceededError`.
    """
    exps = list(target.terms)
    box = [max(e[i] for e in exps) // 2 for i in range(target.shape.width)]
    totals = {sum(e) for e in exps}
    out = monomials(box, max(totals) // 2, exact=len(totals) == 1)
    if len(out) > GRAM_BASIS_CAP:
        raise CapExceededError(
            "Gram basis would exceed the size cap",
            basis_size=len(out),
            cap=GRAM_BASIS_CAP,
        )
    return out


def sos_decompose(target: BlockedPoly) -> SosDecomposition:
    """Write the target as an exact weighted sum of squares.

    One :func:`module_witness` search with no generators over
    :func:`default_gram_basis`.  Raises :class:`SosStalledError` when
    the basis cannot produce some monomial of the target, when the
    numeric search cannot reach the SOS cone (e.g. for nonnegative
    polynomials that are not sums of squares), or when no rounding
    denominator yields an exact identity.
    """
    if not target:
        return SosDecomposition(target.shape, (), ())
    basis = default_gram_basis(target)
    found = module_witness(target, (), [(None, basis)])
    if found is None:
        raise SosStalledError(
            "no exact positive-semidefinite Gram matrix found: the basis "
            "cannot produce the target, the float search stalled outside "
            "the sum-of-squares cone for this basis, or no denominator in "
            "the rounding ladder gave a PSD matrix",
            basis_size=len(basis),
        )
    return found[0]
