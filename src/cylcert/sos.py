"""Sum-of-squares decompositions with exact rational output.

The pipeline here is the classic round-then-project scheme:

1. :func:`psd_feasibility` runs alternating projections in float64
   between the affine set of Gram matrices matching the target's
   coefficients and the cone ``{G : G >= tau I}``, walking ``tau`` down a
   ladder until the two sets meet.
2. :func:`sos_from_gram` rounds the float Gram to a denominator from a
   power-of-two ladder, re-imposes the coefficient constraints *exactly*
   (the Frobenius projection decomposes into independent per-monomial
   corrections, so this is a closed form in rational arithmetic), and
   factors the result with :func:`rational_ldlt`.
3. A successful factorization yields weights and square polynomials
   whose combination is exactly the target — no residual, no trust in
   floats.

Targets outside the SOS cone make step 1 stall at a positive residual;
that is reported as :class:`SosStalledError` rather than papered over.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapExceededError, SosStalledError
from .poly import BlockedPoly, BlockShape, ExactSum

Exponent = tuple[int, ...]

TAU_LADDER = (Fraction(1, 64), Fraction(1, 1024), Fraction(1, 65536), Fraction(1, 2**24), Fraction(0))
DEN_LADDER = tuple(2**k for k in (4, 8, 12, 16, 20, 24, 28, 32))
GRAM_BASIS_CAP = 16


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
# Gram bookkeeping
# ---------------------------------------------------------------------------

def gram_groups(basis: Sequence[Exponent]) -> dict[Exponent, list[tuple[int, int]]]:
    """Group upper-triangle Gram positions by the monomial they produce."""
    groups: dict[Exponent, list[tuple[int, int]]] = {}
    for i, ei in enumerate(basis):
        for j in range(i, len(basis)):
            prod = tuple(a + b for a, b in zip(ei, basis[j]))
            groups.setdefault(prod, []).append((i, j))
    return groups


def _group_divisor(pairs: Sequence[tuple[int, int]]) -> int:
    return sum(1 if i == j else 2 for i, j in pairs)


def project_affine_exact(
    gram: list[list[Fraction]],
    groups: Mapping[Exponent, Sequence[tuple[int, int]]],
    coeffs: Mapping[Exponent, Fraction],
) -> None:
    """Impose the coefficient constraints in place (Frobenius-orthogonally).

    Each monomial's constraint touches a disjoint set of Gram entries,
    so the projection is a uniform per-group shift — no linear algebra.
    """
    for mono, pairs in groups.items():
        want = coeffs.get(mono, Fraction(0))
        have = sum(
            (gram[i][j] * (1 if i == j else 2) for i, j in pairs), start=Fraction(0)
        )
        delta = (want - have) / _group_divisor(pairs)
        for i, j in pairs:
            gram[i][j] += delta
            if i != j:
                gram[j][i] += delta


def _project_affine_float(
    gram: np.ndarray,
    groups: Mapping[Exponent, Sequence[tuple[int, int]]],
    coeffs: Mapping[Exponent, float],
) -> float:
    """Float version of the affine projection; returns the residual before it."""
    worst = 0.0
    for mono, pairs in groups.items():
        want = coeffs.get(mono, 0.0)
        have = sum(gram[i, j] * (1 if i == j else 2) for i, j in pairs)
        delta = (want - have) / _group_divisor(pairs)
        worst = max(worst, abs(want - have))
        for i, j in pairs:
            gram[i, j] += delta
            if i != j:
                gram[j, i] += delta
    return worst


def psd_feasibility(
    basis: Sequence[Exponent],
    coeffs: Mapping[Exponent, Fraction],
    *,
    taus: Sequence[Fraction] = TAU_LADDER,
    max_iterations: int = 100_000,
    tolerance: float = 1e-9,
) -> tuple[np.ndarray, Fraction] | None:
    """Search for a Gram matrix of the target that clears ``tau I``.

    Alternating projections per ladder rung, with stagnation detection
    so hopeless rungs are abandoned early.  Returns the PSD-side iterate
    and the rung that worked, or ``None`` when every rung stalls.
    """
    dim = len(basis)
    groups = gram_groups(basis)
    fcoeffs = {m: float(c) for m, c in coeffs.items()}
    scale = max([abs(v) for v in fcoeffs.values()] + [1.0])
    for tau in taus:
        t = float(tau)
        gram = np.zeros((dim, dim))
        _project_affine_float(gram, groups, fcoeffs)
        best = np.inf
        since_improvement = 0
        budget = max_iterations // len(taus)
        for _ in range(budget):
            vals, vecs = np.linalg.eigh((gram + gram.T) / 2)
            psd = (vecs * np.maximum(vals, t)) @ vecs.T
            gram = psd.copy()
            residual = _project_affine_float(gram, groups, fcoeffs)
            if residual <= tolerance * scale:
                return psd, tau
            if residual < best * (1 - 1e-3):
                best = residual
                since_improvement = 0
            else:
                since_improvement += 1
                if since_improvement >= 300:
                    break
    return None


# ---------------------------------------------------------------------------
# rationalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SosDecomposition:
    """Weighted squares summing exactly to a target polynomial."""

    shape: BlockShape
    weights: tuple[Fraction, ...]
    squares: tuple[BlockedPoly, ...]
    basis: tuple["Exponent | BlockedPoly", ...]
    gram: tuple[tuple[Fraction, ...], ...]

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


def _squares_from_ldlt(
    shape: BlockShape,
    basis: Sequence["Exponent | BlockedPoly"],
    perm: Sequence[int],
    diag: Sequence[Fraction],
    lower: Sequence[Sequence[Fraction]],
) -> tuple[tuple[Fraction, ...], tuple[BlockedPoly, ...]]:
    one = BlockedPoly.constant(shape, 1)
    weights = []
    squares = []
    for k, d in enumerate(diag):
        if d == 0:
            continue
        combo = ExactSum(shape)
        for i in range(k, len(basis)):
            if lower[i][k]:
                base = basis[perm[i]]
                if not isinstance(base, BlockedPoly):
                    base = BlockedPoly.monomial(shape, base)
                combo.add_product(lower[i][k], base, one)
        weights.append(d)
        squares.append(combo.poly())
    return tuple(weights), tuple(squares)


def sos_from_gram(
    target: BlockedPoly,
    basis: Sequence[Exponent],
    gram_float: np.ndarray,
    *,
    denominators: Sequence[int] = DEN_LADDER,
) -> SosDecomposition | None:
    """Round a float Gram to rationals that reproduce the target exactly.

    Walks the denominator ladder; for each rung the rounded matrix is
    projected exactly onto the coefficient constraints and then LDL^T is
    attempted.  The first PSD rung wins.
    """
    groups = gram_groups(basis)
    coeffs = dict(target.terms)
    for den in denominators:
        gram = [
            [Fraction(round(gram_float[i, j] * den), den) for j in range(len(basis))]
            for i in range(len(basis))
        ]
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                avg = (gram[i][j] + gram[j][i]) / 2
                gram[i][j] = gram[j][i] = avg
        project_affine_exact(gram, groups, coeffs)
        fact = rational_ldlt(gram)
        if fact is None:
            continue
        perm, diag, lower = fact
        weights, squares = _squares_from_ldlt(target.shape, basis, perm, diag, lower)
        deco = SosDecomposition(
            shape=target.shape,
            weights=weights,
            squares=squares,
            basis=tuple(basis),
            gram=tuple(tuple(row) for row in gram),
        )
        if deco.verify(target):
            return deco
    return None


def decomposition_from_gram(
    shape: BlockShape,
    basis: Sequence["Exponent | BlockedPoly"],
    gram: Sequence[Sequence[Fraction]],
) -> SosDecomposition | None:
    """Turn an exact PSD Gram matrix into weighted squares.

    Unlike :func:`sos_from_gram` there is no rounding step: the matrix
    is taken as-is, and ``None`` only means it is not PSD.
    """
    fact = rational_ldlt(gram)
    if fact is None:
        return None
    perm, diag, lower = fact
    weights, squares = _squares_from_ldlt(shape, basis, perm, diag, lower)
    return SosDecomposition(
        shape=shape,
        weights=weights,
        squares=squares,
        basis=tuple(basis),
        gram=tuple(tuple(row) for row in gram),
    )


# ---------------------------------------------------------------------------
# basis selection and the main entry point
# ---------------------------------------------------------------------------

def default_gram_basis(target: BlockedPoly, cap: int = GRAM_BASIS_CAP) -> list[Exponent]:
    """Monomial basis covering every possible square support of the target.

    Uses the componentwise-halved exponent box intersected with the
    halved total degree; when the target is homogeneous the basis keeps
    only the matching half degree.  Sizes beyond ``cap`` raise
    :class:`CapExceededError`.
    """
    if not target.terms:
        return [tuple([0] * target.shape.width)]
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
    if len(out) > cap:
        raise CapExceededError(
            "Gram basis would exceed the size cap",
            basis_size=len(out),
            cap=cap,
        )
    return out


def sos_decompose(
    target: BlockedPoly,
    basis: Sequence[Exponent] | None = None,
    *,
    basis_cap: int = GRAM_BASIS_CAP,
    max_iterations: int = 100_000,
    tolerance: float = 1e-9,
) -> SosDecomposition:
    """Write the target as an exact weighted sum of squares.

    Raises :class:`SosStalledError` when the numeric search cannot reach
    the SOS cone (e.g. for nonnegative polynomials that are not sums of
    squares) or when no rounding denominator yields an exact identity.
    """
    if basis is None:
        basis = default_gram_basis(target, basis_cap)
    elif len(basis) > basis_cap:
        raise CapExceededError(
            "Gram basis exceeds the size cap", basis_size=len(basis), cap=basis_cap
        )
    if not target.terms:
        return SosDecomposition(
            shape=target.shape, weights=(), squares=(), basis=tuple(basis), gram=()
        )
    producible = gram_groups(basis).keys()
    missing = [e for e in target.terms if e not in producible]
    if missing:
        raise ValueError(
            f"basis cannot produce the target monomial with exponents {missing[0]}"
        )
    found = psd_feasibility(
        basis, target.terms, max_iterations=max_iterations, tolerance=tolerance
    )
    if found is None:
        raise SosStalledError(
            "alternating projections stalled; target appears to lie outside "
            "the sum-of-squares cone for this basis",
            basis_size=len(basis),
        )
    gram_float, tau = found
    deco = sos_from_gram(target, basis, gram_float)
    if deco is None:
        raise SosStalledError(
            "no denominator in the rounding ladder produced an exact "
            "positive-semidefinite Gram matrix",
            tau=str(tau),
            basis_size=len(basis),
        )
    return deco

