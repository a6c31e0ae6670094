"""Exact SOS decompositions: LDL^T, Gram bookkeeping, rounding and caps."""
import random
from fractions import Fraction as F
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylcert import sos
from cylcert.errors import CapExceededError, SosStalledError
from cylcert.poly import BlockShape, BlockedPoly, expand_identity
from cylcert.problem import problem_from_obj
from cylcert.putinar_base import facet_bases, facet_product
from cylcert.serialize import load_json
from cylcert.sos import (
    GramSystem,
    default_gram_basis,
    module_witness,
    rational_ldlt,
    sos_decompose,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_problems"


# --- rational LDL^T --------------------------------------------------------

def test_ldlt_simple_psd():
    perm, diag, lower = rational_ldlt([[F(4), F(2)], [F(2), F(2)]])
    assert all(d >= 0 for d in diag)
    # reconstruct P G P^T = L D L^T entry by entry
    g = [[F(4), F(2)], [F(2), F(2)]]
    for i in range(2):
        for j in range(2):
            got = sum(lower[i][k] * diag[k] * lower[j][k] for k in range(2))
            assert got == g[perm[i]][perm[j]]


def test_ldlt_rejects_indefinite():
    assert rational_ldlt([[F(1), F(2)], [F(2), F(1)]]) is None
    assert rational_ldlt([[F(0), F(1)], [F(1), F(0)]]) is None
    assert rational_ldlt([[F(-1)]]) is None


def test_ldlt_handles_zero_rows():
    perm, diag, lower = rational_ldlt([[F(1), F(0)], [F(0), F(0)]])
    assert sorted(diag) == [F(0), F(1)]


def test_ldlt_random_gramians_factor_exactly():
    rng = random.Random(9)
    for _ in range(25):
        dim = rng.randrange(2, 5)
        rows = rng.randrange(1, dim + 2)
        b = [
            [F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(dim)]
            for _ in range(rows)
        ]
        g = [
            [sum(b[k][i] * b[k][j] for k in range(rows)) for j in range(dim)]
            for i in range(dim)
        ]
        fact = rational_ldlt(g)
        assert fact is not None
        perm, diag, lower = fact
        assert all(d >= 0 for d in diag)
        for i in range(dim):
            for j in range(dim):
                got = sum(lower[i][k] * diag[k] * lower[j][k] for k in range(dim))
                assert got == g[perm[i]][perm[j]]


# --- Gram bookkeeping ------------------------------------------------------

def _exact_correction_hits_every_coefficient(rng, system, poly_of_entry):
    def point():
        return [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in system.entries]

    for _ in range(10):
        # a reachable right-hand side: the coefficients of another point
        b = [F(0)] * len(system.row_of)
        for value, col in zip(point(), system.cols):
            for row, c in col:
                b[row] += c * value
        x = point()
        fixed = system.exact_correction(x, b)
        assert fixed is not None
        total = BlockedPoly.zero(system.shape)
        for e, value in enumerate(fixed):
            total = total + poly_of_entry(e).scale(value * system.weights[e])
        assert all(total.terms.get(m, 0) == b[r] for m, r in system.row_of.items())
        assert set(total.terms) <= set(system.row_of)
        for gram in system.grams_from_vector(fixed):
            assert all(gram[i][j] == gram[j][i] for i in range(len(gram))
                       for j in range(len(gram)))


def test_gram_groups_partition_all_pairs():
    shape = BlockShape(2, 0)
    basis = [(0, 0), (1, 0), (0, 1)]
    system = GramSystem(shape, (), [(None, basis)])
    assert len(system.entries) == 6  # upper triangle of a 3x3
    # over a monomial basis every entry feeds exactly one coefficient
    assert all(len(col) == 1 for col in system.cols)
    groups = {}
    for entry, col in zip(system.entries, system.cols):
        (row, _c), = col
        groups.setdefault(row, []).append(entry)
    assert sum(len(v) for v in groups.values()) == 6
    assert groups[system.row_of[(1, 1)]] == [(0, 1, 2)]
    assert (0, 0) in system.row_of and (2, 0) in system.row_of


def test_exact_affine_projection_enforces_every_coefficient():
    rng = random.Random(2)
    shape = BlockShape(2, 0)
    basis = [(0, 0), (1, 0), (0, 1), (1, 1)]
    system = GramSystem(shape, (), [(None, basis)])
    for _ in range(20):
        x = [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in system.entries]
        coeffs = {
            m: F(rng.randrange(-5, 6), rng.randrange(1, 4)) for m in system.row_of
        }
        b = [F(0)] * len(system.row_of)
        for m, r in system.row_of.items():
            b[r] = coeffs[m]
        fixed = system.exact_correction(x, b)
        assert fixed is not None
        (gram,) = system.grams_from_vector(fixed)
        have = {}
        for i in range(4):
            for j in range(4):
                mono = tuple(a + c for a, c in zip(basis[i], basis[j]))
                have[mono] = have.get(mono, 0) + gram[i][j]
        assert have == coeffs
        # still symmetric
        for i in range(4):
            for j in range(4):
                assert gram[i][j] == gram[j][i]


def test_gram_system_exact_correction_with_a_generator():
    # sigma_0 plus sigma_1 * g over polynomial bases: a module system
    rng = random.Random(2)
    shape = BlockShape(2, 0)
    one = BlockedPoly.constant(shape, 1)
    x, y = BlockedPoly.variable(shape, 0), BlockedPoly.variable(shape, 1)
    g = one - x - y
    bases = [(None, (one, x, y)), (0, (one, x - y))]
    joint = GramSystem(shape, (g,), bases)

    def joint_entry(e):
        b, j, k = joint.entries[e]
        gen_idx, block = bases[b]
        piece = block[j] * block[k]
        return piece * g if gen_idx is not None else piece

    _exact_correction_hits_every_coefficient(rng, joint, joint_entry)


# --- decomposition round trips --------------------------------------------

def _random_interior_sos(rng, shape, deg=2):
    """Sum of random squares plus a small multiple of every basis square."""
    width = shape.width
    monos = [e for e in iproduct(range(deg + 1), repeat=width) if sum(e) <= deg]
    p = BlockedPoly.zero(shape)
    for _ in range(len(monos)):
        terms = {}
        for e in monos:
            if rng.random() < 0.6:
                terms[e] = F(rng.randrange(-4, 5), rng.randrange(1, 4))
        if terms:
            q = BlockedPoly(shape, terms)
            p = p + q * q
    for e in monos:
        p = p + (BlockedPoly(shape, {e: F(1)}) ** 2).scale(F(1, 8))
    return p


def test_sos_round_trips_are_exact():
    rng = random.Random(101)
    for trial in range(100):
        shape = BlockShape(rng.randrange(1, 3), rng.randrange(0, 2))
        p = _random_interior_sos(rng, shape)
        deco = sos_decompose(p)
        assert expand_identity(deco, ()) == p, f"trial {trial} failed to verify"
        assert all(w > 0 for w in deco.weights)


def test_sos_of_a_binary_quartic_form():
    shape = BlockShape(0, 1, 0, ("Z",))
    p = BlockedPoly(shape, {(4, 0): F(1), (0, 4): F(1)})  # y^4 + z^4
    deco = sos_decompose(p)
    assert expand_identity(deco, ()) == p
    # the homogeneous filter keeps only degree-2 monomials
    assert all(sum(e) == 2 for e in default_gram_basis(p))


def test_sos_of_a_positive_quadratic_form_is_the_coefficient_matrix():
    shape = BlockShape(0, 2, 0, ("Z",))
    p = BlockedPoly(shape, {(2, 0, 0): F(2), (0, 2, 0): F(3), (0, 0, 2): F(1),
                            (1, 1, 0): F(1)})
    deco = sos_decompose(p)
    assert expand_identity(deco, ()) == p


def test_verification_catches_tampering():
    shape = BlockShape(1, 0)
    p = BlockedPoly(shape, {(0,): F(1), (1,): F(1), (2,): F(1)})
    deco = sos_decompose(p)
    assert expand_identity(deco, ()) == p
    assert expand_identity(deco, ()) != p + BlockedPoly.constant(shape, F(1, 10**9))


def _motzkin():
    shape = BlockShape(2, 0)
    x = BlockedPoly.variable(shape, 0)
    y = BlockedPoly.variable(shape, 1)
    return (
        (x ** 4) * (y ** 2)
        + (x ** 2) * (y ** 4)
        - ((x ** 2) * (y ** 2)).scale(F(3))
        + BlockedPoly.constant(shape, 1)
    )


def test_motzkin_form_stalls():
    """Nonnegative but not SOS: the numeric stage must give up loudly."""
    with pytest.raises(SosStalledError):
        sos_decompose(_motzkin())


def test_zero_polynomial_decomposes_trivially():
    shape = BlockShape(1, 0)
    deco = sos_decompose(BlockedPoly.zero(shape))
    assert deco.weights == ()
    assert expand_identity(deco, ()) == BlockedPoly.zero(shape)


def test_unproducible_monomial_is_rejected_up_front(monkeypatch):
    shape = BlockShape(1, 0)
    p = BlockedPoly(shape, {(3,): F(1), (0,): F(1)})  # odd degree
    monkeypatch.setattr(sos, "psd_feasibility", lambda *args: pytest.fail("searched"))
    with pytest.raises(SosStalledError):
        sos_decompose(p)


def test_basis_cap_is_enforced(monkeypatch):
    shape = BlockShape(4, 0)
    p = BlockedPoly.constant(shape, F(1))
    for i in range(4):
        v = BlockedPoly.variable(shape, i)
        p = p + (v ** 4)
    monkeypatch.setattr(sos, "GRAM_BASIS_CAP", 5)
    with pytest.raises(CapExceededError):
        sos_decompose(p)


def test_default_basis_respects_homogeneity():
    shape = BlockShape(2, 0)
    p = BlockedPoly(shape, {(4, 0): F(1), (2, 2): F(1), (0, 4): F(1)})
    basis = default_gram_basis(p)
    assert all(sum(e) == 2 for e in basis)


# --- the float search against the per-block loop it replaced ---------------
#
# The three functions below are the earlier per-block PSD projection, the
# affine projection and the search loop, copied unchanged except that the
# loop calls the copied projections, records the rung of every step and
# leaves a rung whose gap has not halved in a quarter of its budget (unless
# ``halving`` is false).  The stacked eigensolves, the fixed-point exit and
# the error state entered once per search must return the same array, bit
# for bit.

def _reference_project_psd(self, x, tau):
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


def _reference_project_affine(self, x, b):
    return x + (self.aw.T @ (self.pinv_awa @ (b - self.a @ x)))


def _reference_psd_feasibility(system, b, rungs, halving=True):
    per_tau = sos.MAX_ITERATIONS // len(sos.TAU_LADDER)
    window = per_tau // 4
    scale = max(1.0, float(np.max(np.abs(b))))
    x = _reference_project_affine(system, np.zeros(len(system.entries)), b)
    best_gap = np.inf
    best_x = x
    for tau in sos.TAU_LADDER:
        best = np.inf
        idle = 0
        gaps = []
        for step in range(per_tau):
            rungs.append(tau)
            y = _reference_project_psd(system, x, float(tau))
            gap = float(np.max(np.abs(y - x)))
            x = _reference_project_affine(system, y, b)
            if gap < sos.TOLERANCE * scale:
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
            if halving and step >= window and gap > gaps[step - window] / 2:
                break
    if best_gap <= sos.SNAP_GAP * scale:
        return best_x
    return None


def _search_both(system, target):
    """``(new, reference, new steps, reference rungs)`` for one target."""
    b = np.asarray([float(v) for v in system.rhs(target)], dtype=np.float64)
    rungs = []
    expected = _reference_psd_feasibility(system, b, rungs)
    steps = []
    project = system.project_psd
    system.project_psd = lambda x, tau: steps.append(tau) or project(x, tau)
    got = sos.psd_feasibility(system, b)
    if expected is None:
        assert got is None
    else:
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    return got, expected, steps, rungs


def _form_system(target):
    return GramSystem(target.shape, (), [(None, default_gram_basis(target))])


def test_search_converging_on_the_first_rung_is_unchanged():
    shape = BlockShape(0, 2, 0, ("Z",))
    p = BlockedPoly(shape, {(4, 0, 0): F(1), (0, 4, 0): F(2), (0, 0, 4): F(3),
                            (2, 2, 0): F(1), (1, 1, 2): F(1, 2)})
    got, _, steps, rungs = _search_both(_form_system(p), p)
    assert got is not None and set(rungs) == {sos.TAU_LADDER[0]}
    assert steps == rungs


def _c6_form():
    # a coefficient form of sample problem c6, which sits at a fixed point
    # of the projections on every rung
    shape = BlockShape(n=1, r1=1, r2=1, homs=("Z1", "Z2"))
    return BlockedPoly(shape, {
        (0, 0, 0, 2, 2): F(2129, 512), (0, 0, 2, 2, 0): F(1105, 512),
        (0, 2, 0, 0, 2): F(1105, 512), (0, 2, 2, 0, 0): F(1105, 512),
    })


def test_search_leaves_a_rung_at_an_exact_fixed_point():
    form = _c6_form()
    got, _, steps, rungs = _search_both(_form_system(form), form)
    assert got is not None
    # the reference idles 301 steps on each rung it abandons
    assert len(rungs) > 300 * (len(sos.TAU_LADDER) - 1)
    assert len(steps) <= 2 * len(sos.TAU_LADDER)


def test_search_on_the_motzkin_form_fails_the_same_way():
    motzkin = _motzkin()
    got, expected, _, _ = _search_both(_form_system(motzkin), motzkin)
    assert got is None and expected is None


def test_module_search_with_equal_block_sizes_is_unchanged():
    # 3 - x^2 - y^2 = 1 + (1 - x^2) + (1 - y^2): sigma_0, sigma_1 and sigma_2
    # each over (1, x, y), so one stacked eigensolve serves all three
    shape = BlockShape(2, 0)
    one = BlockedPoly.constant(shape, 1)
    x, y = BlockedPoly.variable(shape, 0), BlockedPoly.variable(shape, 1)
    gens = (one - x * x, one - y * y)
    basis = ((0, 0), (1, 0), (0, 1))
    system = GramSystem(shape, gens, [(None, basis), (0, basis), (1, basis[:2])])
    target = one.scale(3) - x * x - y * y
    got, _, _, _ = _search_both(system, target)
    assert got is not None


def test_stacked_projection_matches_the_per_block_loop():
    rng = np.random.default_rng(5)
    shape = BlockShape(2, 0)
    one = BlockedPoly.constant(shape, 1)
    x = BlockedPoly.variable(shape, 0)
    basis = ((0, 0), (1, 0), (0, 1), (1, 1))
    system = GramSystem(
        shape, (one - x, one + x),
        [(None, basis), (0, basis[:2]), (1, basis[:2]), (0, basis[:1]), (1, basis)],
    )
    for tau in (0.0, 1 / 64, 2.0**-24):
        point = rng.standard_normal(len(system.entries))
        got = system.project_psd(point, tau)
        assert got.tobytes() == _reference_project_psd(system, point, tau).tobytes()


# c5's facet system at budget 4 (blocks 6, 3, 3) for the four parities its
# forms use, with the projections each search makes.  Parity (0, 1, 1) has
# no feasible point at tau = 1/64: its gap crawls from about 1e-3 and the
# rung is left at its 1,519th step, not run out to 4,000; the search then
# converges on the first step at tau = 1/1024.
C5_FACET_STEPS = {(0, 0, 0): 46, (0, 1, 1): 1520, (1, 0, 1): 562, (1, 1, 0): 562}


def _c5_facet_system(parity):
    problem = problem_from_obj(load_json(SAMPLES / "c5_square_plane_quadratic.json"))
    shape, gens = problem.shape, problem.g
    target = facet_product(shape, parity)
    system = GramSystem(shape, gens, facet_bases(shape, gens, 4, target))
    assert [len(basis) for _gen, basis in system.blocks] == [6, 3, 3]
    return system, target


def test_c5_stalled_rung_is_left_early():
    steps_per_search = {}
    for parity in C5_FACET_STEPS:
        got, _, steps, _ = _search_both(*_c5_facet_system(parity))
        assert got is not None
        steps_per_search[parity] = len(steps)
    assert steps_per_search == C5_FACET_STEPS


def test_halving_rule_touches_only_the_stalled_rung():
    # the three converging c5 searches and c6's fixed-point one return the
    # same bytes with the rule as without it
    cases = [_c5_facet_system(parity) for parity in C5_FACET_STEPS if parity != (0, 1, 1)]
    form = _c6_form()
    cases.append((_form_system(form), form))
    for system, target in cases:
        got, _, _, _ = _search_both(system, target)
        b = np.asarray([float(v) for v in system.rhs(target)], dtype=np.float64)
        unhalved = _reference_psd_feasibility(system, b, [], halving=False)
        assert got.tobytes() == unhalved.tobytes()


# --- the LAPACK gufunc and failures of the float search --------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_eigh_gufunc_matches_numpy_eigh(blocks, dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((blocks, dim, dim)) * 10.0 ** int(rng.integers(-3, 4))
    a = a + a.transpose(0, 2, 1)
    vals, vecs = sos._eigh_lo(a, signature="d->dd")
    ref_vals, ref_vecs = np.linalg.eigh(a)
    assert vals.dtype == ref_vals.dtype and vecs.dtype == ref_vecs.dtype
    assert vals.tobytes() == ref_vals.tobytes()
    assert vecs.tobytes() == ref_vecs.tobytes()


def _square_system():
    shape = BlockShape(2, 0)
    basis = [(0, 0), (1, 0), (0, 1)]
    target = BlockedPoly(shape, {(0, 0): F(1), (2, 0): F(1), (0, 2): F(1)})
    system = GramSystem(shape, (), [(None, basis)])
    return system, np.asarray([float(v) for v in system.rhs(target)])


def test_a_nan_fails_the_search_instead_of_returning():
    system, b = _square_system()
    assert sos.psd_feasibility(system, b) is not None
    b_inf = b.copy()
    b_inf[0] = np.inf
    assert sos.psd_feasibility(system, b_inf) is None
    nan_x = np.full(len(system.entries), np.nan)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(nan_x[system.psd_groups[0][0]])
    # outside the search a NaN block still warns; inside it ends the search
    with pytest.warns(RuntimeWarning):
        assert np.isnan(system.project_psd(nan_x, 0.0)).all()
    system.project_affine = lambda x, b: np.full_like(x, np.nan)
    assert sos.psd_feasibility(system, b) is None


def test_a_float_image_that_overflows_fails_the_search():
    # g's coefficients fit in a float, but A W^-1 A^T overflows
    shape = BlockShape(1, 0)
    one = BlockedPoly.constant(shape, 1)
    x = BlockedPoly.variable(shape, 0)
    huge = F(10) ** 200
    gens = ((x - x * x).scale(huge),)
    bases = [(None, [(0,), (1,)]), (0, [(0,)])]
    assert GramSystem(shape, gens, bases).pinv_awa is None
    assert module_witness(one + x, gens, bases) is None
    # coefficients beyond the float range, in a generator or in the target
    beyond = F(10) ** 400
    assert module_witness(one + x, ((x - x * x).scale(beyond),), bases) is None
    assert module_witness(one.scale(beyond) + x, (x - x * x,), bases) is None
    assert module_witness(one.scale(-beyond) + x, (x - x * x,), bases) is None


def test_a_pseudo_inverse_that_fails_fails_the_search(monkeypatch):
    def no_svd(_a):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "pinv", no_svd)
    system, b = _square_system()
    assert system.pinv_awa is None
    assert sos.psd_feasibility(system, b) is None


def test_blocks_of_one_sigma_add_their_squares():
    # x^2 + y^2 from two one-monomial blocks of sigma_0, and from one block
    shape = BlockShape(1, 1)
    x, y = BlockedPoly.variable(shape, 0), BlockedPoly.variable(shape, 1)
    target = x * x + y * y
    [split] = module_witness(target, (), [(None, [(1, 0)]), (None, [(0, 1)])])
    [joined] = module_witness(target, (), [(None, [(1, 0), (0, 1)])])
    assert split.squares == (x, y) and split.weights == (1, 1)
    assert expand_identity(split, ()) == expand_identity(joined, ()) == target
    # 1 - x^4 = (1 + x^2) * g with g = 1 - x^2: sigma_1 = 1^2 + x^2 from two blocks
    one = BlockedPoly.constant(shape, 1)
    g = one - x * x
    sigma0, sigma1 = module_witness((one + x * x) * g, (g,), [(0, [(0, 0)]), (0, [(1, 0)])])
    assert not sigma0.squares
    assert sigma1.squares == (one, x) and sigma1.weights == (1, 1)


def test_one_system_serves_every_target_of_a_basis_set():
    shape = BlockShape(2, 0)
    basis = [(0, 0), (1, 0), (0, 1)]
    targets = [
        BlockedPoly(shape, {(0, 0): F(c), (2, 0): F(1), (0, 2): F(2), (1, 1): F(1)})
        for c in (1, 2, 3)
    ]
    sos._gram_system.cache_clear()
    found = [module_witness(t, (), [(None, list(basis))]) for t in targets]
    info = sos._gram_system.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for target, sigmas in zip(targets, found):
        [deco] = sigmas
        assert expand_identity(deco, ()) == target
    sos._gram_system.cache_clear()
    assert sos._gram_system.cache_info().currsize == 0


# --- the recorded exact elimination against the solve it replaced ----------

def _reference_solve_exact(self, rhs):
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
    y = [F(0)] * dim
    for r, c in zip(piv_rows, piv_cols):
        y[c] = m[r][dim] / m[r][c]
    return y


_ENTRIES = st.one_of(st.just(F(0)), st.fractions(-50, 50, max_denominator=12))
_NONZERO = st.fractions(-50, 50, max_denominator=12).filter(bool)


@st.composite
def _linear_systems(draw):
    """``(M, right-hand sides)``: M of every rank, sides in its range or not.

    M is ``left @ right`` with rows and columns shuffled, where ``left``
    starts with a unit lower triangle and ``right`` is upper triangular
    with a nonzero diagonal, so its rank is exactly ``rank``.
    """
    dim = draw(st.integers(1, 6))
    rank = dim - draw(st.integers(0, dim))
    left = [[F(i == k) if i <= k else draw(_ENTRIES) for k in range(rank)] for i in range(dim)]
    right = [[F(0) if j < k else draw(_NONZERO) if j == k else draw(_ENTRIES)
              for j in range(dim)] for k in range(rank)]
    rows = draw(st.permutations(range(dim)))
    cols = draw(st.permutations(range(dim)))
    m = [[sum((left[i][k] * right[k][j] for k in range(rank)), F(0)) for j in cols]
         for i in rows]
    sides = []
    for _ in range(draw(st.integers(1, 3))):
        v = [draw(_ENTRIES) for _ in range(dim)]
        rhs = [sum((m[i][j] * v[j] for j in range(dim)), F(0)) for i in range(dim)]
        if draw(st.booleans()):
            rhs = [r + draw(_ENTRIES) for r in rhs]
        sides.append(rhs)
    return m, sides


def _solver(m):
    """A system holding only its normal matrix, which is all the solve reads."""
    system = object.__new__(GramSystem)
    system.m_exact = m
    return system


@settings(max_examples=100, deadline=None)
@given(_linear_systems())
@example(([[F(2), F(1)], [F(1), F(3)]], [[F(1), F(-1)]]))             # full rank
@example(([[F(1), F(2)], [F(2), F(4)]], [[F(1), F(2)]]))              # rank 1, consistent
@example(([[F(1), F(2)], [F(2), F(4)]], [[F(1), F(3)]]))              # rank 1, inconsistent
@example(([[F(0), F(0)], [F(0), F(0)]], [[F(0), F(0)], [F(0), F(1)]]))  # rank 0
def test_recorded_elimination_matches_the_gauss_jordan_solve(case):
    m, sides = case
    system = _solver(m)
    for rhs in sides:
        expected = _reference_solve_exact(system, rhs)
        got = system._solve_exact(rhs)
        if expected is None:
            assert got is None
        else:
            assert got == expected and all(type(v) is F for v in got)
            assert all(sum(a * b for a, b in zip(row, got)) == r for row, r in zip(m, rhs))
