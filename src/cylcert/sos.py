"""Sum-of-squares decompositions with exact rational output.

Every sigma in a certificate is read off a PSD Gram matrix, and one
engine finds them all.  A :class:`GramSystem` holds one Gram block per
sigma, each over its own basis (monomials, or arbitrary polynomials for
facially reduced systems) and optionally multiplied by a generator, and
the sparse affine system tying the blocks to a target's coefficients.
The classic round-then-project scheme then runs on it:

1. :func:`psd_feasibility` alternates in float64 between the affine set
   and the cone ``{every block >= tau I}``, walking ``tau`` down a
   ladder until the two sets meet.  A rung is left once it stops
   improving, or as soon as a step returns the previous point bit for
   bit, since every later step of the rung would repeat it.  Blocks of
   one size are projected with one stacked eigensolve.
2. :func:`gram_decompositions` rounds that point to each denominator of
   a power-of-two ladder, re-imposes the coefficient constraints
   *exactly* (a rational solve of the normal equations), and factors
   every block with :func:`rational_ldlt`.
3. A block set that factors yields weights and square polynomials whose
   combination is exactly the target: no residual, no trust in floats.

:func:`sos_decompose` is the one-block case (a monomial basis, no
generator) used for forms; :mod:`cylcert.putinar_base` builds one block
per sigma of a module witness.  Targets outside the cone make step 1
stall at a positive residual; :func:`sos_decompose` reports that as
:class:`SosStalledError` rather than papering over it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapExceededError, SosStalledError
from .poly import BlockedPoly, BlockShape, ExactSum

Exponent = tuple[int, ...]
Basis = Sequence["Exponent | BlockedPoly"]

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

def _as_poly(shape: BlockShape, base: "Exponent | BlockedPoly") -> BlockedPoly:
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
        polys = [[_as_poly(shape, q) for q in basis] for _gen, basis in self.blocks]
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
                a[row, e] = float(value)
        w_inv = 1.0 / np.asarray(self.weights, dtype=np.float64)
        self.a = a
        self.aw = a * w_inv[None, :]          # A W^-1
        self.pinv_awa = np.linalg.pinv(self.aw @ a.T)

        # Blocks of one size share one stacked eigensolve: per size, the
        # upper-triangle indices and each block's positions in x.
        positions: dict[int, list[np.ndarray]] = {}
        offset = 0
        for _gen, basis in self.blocks:
            dim = len(basis)
            count = dim * (dim + 1) // 2
            positions.setdefault(dim, []).append(np.arange(offset, offset + count))
            offset += count
        self.psd_groups = [
            (dim, np.triu_indices(dim), np.stack(pos)) for dim, pos in positions.items()
        ]

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
        out = np.empty_like(x)
        for dim, (rows, cols), pos in self.psd_groups:
            mats = np.zeros((len(pos), dim, dim))
            upper = x[pos]
            mats[:, rows, cols] = upper
            mats[:, cols, rows] = upper
            vals, vecs = np.linalg.eigh(mats)
            mats = (vecs * np.clip(vals, tau, None)[:, None, :]) @ vecs.transpose(0, 2, 1)
            out[pos] = mats[:, rows, cols]
        return out

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


def psd_feasibility(system: GramSystem, b: np.ndarray) -> np.ndarray | None:
    """Alternating projections toward an affine-and-PSD point.

    Walks :data:`TAU_LADDER`, abandoning a rung once it stops improving
    (300 idle steps) or at an exact fixed point: a step whose affine
    point equals the previous one bit for bit.  From there each step of
    the rung would repeat the same one, so leaving early returns the
    same point as running the rung out.  Returns the converged point, or
    the best near-feasible point seen when it lies within
    :data:`SNAP_GAP` (boundary-feasible systems stall there), or None
    when clearly infeasible.
    """
    per_tau = MAX_ITERATIONS // len(TAU_LADDER)
    scale = max(1.0, float(np.max(np.abs(b))))
    x = system.project_affine(np.zeros(len(system.entries)), b)
    best_gap = np.inf
    best_x = x
    for tau in TAU_LADDER:
        best = np.inf
        idle = 0
        for _ in range(per_tau):
            y = system.project_psd(x, float(tau))
            gap = float(np.max(np.abs(y - x)))
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
            if np.array_equal(x, x_prev):
                # Each later step of this rung would repeat this one and
                # change nothing until the idle rule ends the rung.
                break
    if best_gap <= SNAP_GAP * scale:
        return best_x
    return None


def gram_decompositions(
    system: GramSystem, b: Sequence[Fraction]
) -> Iterator[list["SosDecomposition"]]:
    """Exact decompositions of every block, one list per rounding rung.

    Runs the float search once, then for each denominator of
    :data:`DEN_LADDER` rounds the point, projects it exactly onto the
    affine set and factors each block.  Yields only rungs where every
    block is PSD, in ladder order; stops when the search fails or the
    exact system is inconsistent.
    """
    x_float = psd_feasibility(system, np.asarray([float(v) for v in b], dtype=np.float64))
    if x_float is None:
        return
    for den in DEN_LADDER:
        x_exact = system.exact_correction([Fraction(round(v * den), den) for v in x_float], b)
        if x_exact is None:
            return
        decos = []
        for (_gen, basis), gram in zip(system.blocks, system.grams_from_vector(x_exact)):
            deco = decomposition_from_gram(system.shape, basis, gram)
            if deco is None:
                break
            decos.append(deco)
        else:
            yield decos


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SosDecomposition:
    """Weighted squares summing exactly to a target polynomial."""

    shape: BlockShape
    weights: tuple[Fraction, ...]
    squares: tuple[BlockedPoly, ...]

    def as_poly(self) -> BlockedPoly:
        return expand_identity(self, ())

    def verify(self, target: BlockedPoly) -> bool:
        return self.as_poly() == target


def expand_identity(
    sigma0: SosDecomposition,
    products: Iterable[tuple[SosDecomposition, BlockedPoly]],
) -> BlockedPoly:
    """Expand ``sigma_0 + sum sigma_i * g_i`` exactly, in one sum.

    ``products`` pairs each multiplier sigma_i with its generator g_i.
    Assembly, verification and the facet witnesses all check their
    identity through this one expansion.
    """
    total = ExactSum(sigma0.shape)
    for w, q in zip(sigma0.weights, sigma0.squares):
        total.add_product(w, q, q, square=True)
    for sigma, g in products:
        total.add_product(1, sigma.as_poly(), g)
    return total.poly()


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
                combo.add_product(lower[i][k], _as_poly(shape, basis[perm[i]]), one)
        weights.append(d)
        squares.append(combo.poly())
    return SosDecomposition(shape, tuple(weights), tuple(squares))


# ---------------------------------------------------------------------------
# basis selection and the main entry point
# ---------------------------------------------------------------------------

def default_gram_basis(target: BlockedPoly) -> list[Exponent]:
    """Monomial basis covering every possible square support of a nonzero target.

    Uses the componentwise-halved exponent box intersected with the
    halved total degree; when the target is homogeneous the basis keeps
    only the matching half degree.  Sizes beyond ``GRAM_BASIS_CAP`` raise
    :class:`CapExceededError`.
    """
    width = target.shape.width
    box = [0] * width
    totals = set()
    for e in target.terms:
        totals.add(sum(e))
        for i, v in enumerate(e):
            box[i] = max(box[i], v)
    total_cap = max(totals) // 2
    homogeneous = len(totals) == 1
    ranges = [range(v // 2 + 1) for v in box]
    out: list[Exponent] = []
    stack: list[tuple[list[int], int]] = [([], 0)]
    while stack:
        prefix, used = stack.pop()
        i = len(prefix)
        if i == width:
            tot = sum(prefix)
            if tot <= total_cap and (not homogeneous or tot == total_cap):
                out.append(tuple(prefix))
            continue
        for v in ranges[i]:
            if used + v <= total_cap:
                stack.append((prefix + [v], used + v))
    out.sort()
    if len(out) > GRAM_BASIS_CAP:
        raise CapExceededError(
            "Gram basis would exceed the size cap",
            basis_size=len(out),
            cap=GRAM_BASIS_CAP,
        )
    return out


def sos_decompose(target: BlockedPoly) -> SosDecomposition:
    """Write the target as an exact weighted sum of squares.

    Raises :class:`SosStalledError` when the numeric search cannot reach
    the SOS cone (e.g. for nonnegative polynomials that are not sums of
    squares) or when no rounding denominator yields an exact identity.
    """
    if not target.terms:
        return SosDecomposition(target.shape, (), ())
    basis = default_gram_basis(target)
    system = GramSystem(target.shape, (), [(None, basis)])
    b = system.rhs(target)
    if b is None:
        missing = next(e for e in target.terms if e not in system.row_of)
        raise ValueError(
            f"basis cannot produce the target monomial with exponents {missing}"
        )
    for (deco,) in gram_decompositions(system, b):
        if deco.verify(target):
            return deco
    raise SosStalledError(
        "no exact positive-semidefinite Gram matrix found: the float search "
        "stalled outside the sum-of-squares cone for this basis, or no "
        "denominator in the rounding ladder gave a PSD matrix",
        basis_size=len(basis),
    )
