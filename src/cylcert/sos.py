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
from math import isqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapExceededError, NotNonnegativeError, SosStalledError
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


# ---------------------------------------------------------------------------
# univariate: Sturm sequences and nonnegativity
# ---------------------------------------------------------------------------

def _uni_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _uni_neg(c: Sequence[Fraction]) -> list[Fraction]:
    return [-v for v in c]


def _uni_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        k = len(a) - len(b)
        f = a[-1] / b[-1]
        q[k] = f
        for i, bv in enumerate(b):
            a[k + i] -= f * bv
        _uni_trim(a)
        if not a:
            break
    return _uni_trim(q), a


def _uni_derivative(c: Sequence[Fraction]) -> list[Fraction]:
    return [i * v for i, v in enumerate(c)][1:]


def _uni_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a, b = _uni_trim(list(a)), _uni_trim(list(b))
    while b:
        _, r = _uni_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [v / lead for v in a]
    return a


def _sturm_chain(c: Sequence[Fraction]) -> list[list[Fraction]]:
    chain = [_uni_trim(list(c)), _uni_derivative(c)]
    while chain[-1]:
        _, r = _uni_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_uni_neg(r))
    return [p for p in chain if p]


def _sign_changes(values: Iterable[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _eval_uni(c: Sequence[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for v in reversed(list(c)):
        out = out * x + v
    return out


def count_real_roots(
    coeffs: Sequence[Fraction],
    low: Fraction | None = None,
    high: Fraction | None = None,
) -> int:
    """Number of distinct real roots in (low, high]; None means infinite end."""
    c = _uni_trim([Fraction(v) for v in coeffs])
    if len(c) <= 1:
        return 0
    chain = _sturm_chain(c)
    if low is None:
        at_low = _sign_changes([p[-1] * (-1) ** (len(p) - 1) for p in chain])
    else:
        at_low = _sign_changes([_eval_uni(p, low) for p in chain])
    if high is None:
        at_high = _sign_changes([p[-1] for p in chain])
    else:
        at_high = _sign_changes([_eval_uni(p, high) for p in chain])
    return at_low - at_high


def univariate_nonnegative(coeffs: Sequence[Fraction]) -> bool:
    """Exact test: is the polynomial >= 0 on the whole real line?"""
    c = _uni_trim([Fraction(v) for v in coeffs])
    if not c:
        return True
    if (len(c) - 1) % 2 == 1 or c[-1] < 0:
        return False
    # strip the even-multiplicity part: roots of odd multiplicity are
    # exactly the real roots of p / gcd(p, p') that remain roots of p
    # with odd order; p >= 0 iff the square-free part has no real roots
    # of odd multiplicity, which for a nonnegative-leading even-degree
    # polynomial reduces to: every real root has even multiplicity.
    odd_part = _odd_multiplicity_part(c)
    return count_real_roots(odd_part) == 0


def _odd_multiplicity_part(c: list[Fraction]) -> list[Fraction]:
    """Product of the square-free factors appearing with odd multiplicity.

    Peeling gcd(p, p') drops every factor's multiplicity by one, and the
    square-free quotient at level j collects exactly the factors of
    multiplicity >= j.  A factor of multiplicity m therefore appears in
    the alternating product (levels 1, 3, ... over levels 2, 4, ...)
    with exponent m mod 2.
    """
    numerator = [Fraction(1)]
    denominator = [Fraction(1)]
    current = list(c)
    level = 1
    while len(current) > 1:
        g = _uni_gcd(current, _uni_derivative(current))
        squarefree, _ = _uni_divmod(current, g)
        if level % 2 == 1:
            numerator = _uni_mul(numerator, squarefree)
        else:
            denominator = _uni_mul(denominator, squarefree)
        current = g
        level += 1
    odd, rem = _uni_divmod(numerator, denominator)
    assert not rem, "square-free peeling produced a non-divisible tower"
    return odd


def _uni_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] += av * bv
    return _uni_trim(out)


def poly_sqrt(p: BlockedPoly) -> BlockedPoly | None:
    """Exact polynomial square root, or None when p is not a perfect square."""
    if not p.terms:
        return BlockedPoly.zero(p.shape)
    items = p.sorted_terms()
    lead_exp, lead_coeff = items[0]
    if any(v % 2 for v in lead_exp) or lead_coeff < 0:
        return None
    root_coeff = _frac_sqrt(lead_coeff)
    if root_coeff is None:
        return None
    root = BlockedPoly(p.shape, {tuple(v // 2 for v in lead_exp): root_coeff})
    limit = 4 * len(p.terms) + 8
    for _ in range(limit):
        diff = p - root * root
        if not diff.terms:
            return root
        d_exp, d_coeff = diff.sorted_terms()[0]
        step_exp = tuple(d - l // 2 for d, l in zip(d_exp, lead_exp))
        if any(v < 0 for v in step_exp):
            return None
        root = root + BlockedPoly(p.shape, {step_exp: d_coeff / (2 * root_coeff)})
    return None


def _frac_sqrt(v: Fraction) -> Fraction | None:
    if v < 0:
        return None
    num, den = v.numerator, v.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def sos_univariate(
    p: BlockedPoly, slot: int = 0, *, degree_cap: int = 8
) -> SosDecomposition:
    """Exact SOS for a univariate nonnegative polynomial (degree <= cap).

    Runs the Sturm-based nonnegativity decision first so that genuinely
    negative inputs fail with :class:`NotNonnegativeError` and a witness
    instead of a numeric stall.
    """
    width = p.shape.width
    for e in p.terms:
        if any(v and i != slot for i, v in enumerate(e)):
            raise ValueError("polynomial is not univariate in the given slot")
    deg = max((e[slot] for e in p.terms), default=0)
    if deg > degree_cap:
        raise CapExceededError(
            "univariate SOS degree cap exceeded", degree=deg, cap=degree_cap
        )
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in p.terms.items():
        coeffs[e[slot]] = c
    if not univariate_nonnegative(coeffs):
        raise NotNonnegativeError(
            "polynomial is negative somewhere on the real line",
            witness=_negative_witness(coeffs),
        )
    basis = [
        tuple(d if i == slot else 0 for i in range(width)) for d in range(deg // 2 + 1)
    ]
    return sos_decompose(p, basis)


def _negative_witness(coeffs: Sequence[Fraction]) -> str | None:
    """A rational point with negative value, found by a dyadic sweep."""
    bound = 1 + max(
        (abs(c) / abs(coeffs[-1]) for c in coeffs[:-1]), default=Fraction(0)
    )
    for density in (1, 2, 4, 8, 16, 64, 256):
        steps = int(bound * density) + 1
        for k in range(-steps, steps + 1):
            x = Fraction(k, density)
            if _eval_uni(coeffs, x) < 0:
                return str(x)
    return None
