"""Exact SOS decompositions: LDL^T, Gram bookkeeping, rounding and caps."""
import random
from collections import Counter
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
# The functions below are the earlier per-block PSD projection, the affine
# projection and the search loop, copied unchanged except that the loop
# calls the copied projections, records the rung of every step, leaves a
# rung whose gap has not halved in a quarter of its budget (unless
# ``halving`` is false) and, unless ``anderson`` is false, steps to the
# Anderson point of its last steps once a rung's gap is within SNAP_GAP,
# formed column by column.  The stacked eigensolves, the fixed-point exit,
# the error state entered once per search and the stacked Anderson step
# must return the same array, bit for bit.

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


def _reference_anderson(pairs):
    """``g_k - dG gamma`` for ``(image, residual)`` pairs, oldest first."""
    d_g = np.array([g1 - g0 for (g0, _), (g1, _) in zip(pairs, pairs[1:])])
    d_f = np.array([f1 - f0 for (_, f0), (_, f1) in zip(pairs, pairs[1:])])
    gamma = np.linalg.lstsq(d_f.T, pairs[-1][1], rcond=None)[0]
    return pairs[-1][0] - gamma @ d_g


def _reference_psd_feasibility(system, b, rungs, halving=True, anderson=True):
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
        pairs = []
        for step in range(per_tau):
            rungs.append(tau)
            y = _reference_project_psd(system, x, float(tau))
            gap = float(np.max(np.abs(y - x)))
            x_prev, x = x, _reference_project_affine(system, y, b)
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
            if anderson:
                if step and gap > gaps[step - 1]:
                    pairs = []
                pairs = pairs[-sos.ANDERSON_MEMORY:] + [(x, x - x_prev)]
                if gap < sos.SNAP_GAP * scale and len(pairs) > 1:
                    x = _reference_anderson(pairs)
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
    # and each rung ends by its second step
    per_rung = Counter(steps)
    assert set(per_rung) == set(sos.TAU_LADDER)
    assert max(per_rung.values()) <= 2


def test_anderson_point_of_an_affine_map_is_its_fixed_point():
    # for G(x) = A x + c on R^3 the three residual differences of four
    # steps span R^3, so the Anderson point solves x = A x + c
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) / 4
    c = rng.standard_normal(3)
    fixed = np.linalg.solve(np.eye(3) - a, c)
    pairs = []
    x = np.zeros(3)
    for _ in range(4):
        image = a @ x + c
        pairs.append((image, image - x))
        x = image
    assert np.allclose(sos._anderson(pairs), fixed, rtol=0, atol=1e-12)
    assert sos._anderson(pairs).tobytes() == _reference_anderson(pairs).tobytes()


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
# forms use, with the projections each search makes (46, 1,520, 562 and
# 562 without the Anderson steps).  Parity (0, 1, 1) has no feasible point
# at tau = 1/64: its gap crawls from about 1e-3, never within SNAP_GAP, and
# the rung is left at its 1,519th step, not run out to 4,000; the search
# then converges on the first step at tau = 1/1024.
C5_FACET_STEPS = {(0, 0, 0): 17, (0, 1, 1): 1520, (1, 0, 1): 167, (1, 1, 0): 167}


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


def test_acceleration_never_engages_on_the_stalled_rung():
    system, target = _c5_facet_system((0, 1, 1))
    b = np.asarray([float(v) for v in system.rhs(target)], dtype=np.float64)
    with sos.gram_tally() as tally:
        got, _, steps, _ = _search_both(system, target)
    assert (tally.searches, tally.steps, tally.accelerated) == (1, len(steps), 0)
    plain = _reference_psd_feasibility(system, b, [], anderson=False)
    assert got.tobytes() == plain.tobytes()


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


# --- the exact phase's size cap -----------------------------------------------

def test_ldlt_refuses_a_matrix_over_the_size_cap():
    # coupled rows * bits: 2 * 2048 = 4096 factors, 2 * 2049 is refused
    big = F(2**2047)
    assert rational_ldlt([[big, F(1)], [F(1), F(1)]]) is not None
    with pytest.raises(CapExceededError) as caught:
        rational_ldlt([[big * 2, F(1)], [F(1), F(1)]])
    assert caught.value.payload == {
        "stage": "ldlt", "coupled_rows": 2, "bits": 2049, "size": 4098,
        "cap": sos.EXACT_BITS_CAP,
    }
    # a row zero off the diagonal is never combined with another, so its
    # length does not count
    huge = F(2**100_000)
    perm, diag, lower = rational_ldlt([[huge, F(0), F(0)], [F(0), F(2), F(1)], [F(0), F(1), F(1)]])
    assert diag == [huge, F(2), F(1, 2)]


def test_elimination_refuses_a_normal_matrix_over_the_size_cap():
    # the denominator counts as much as the numerator
    system = _solver([[F(1, 2**2100), F(1)], [F(1), F(1)]])
    with pytest.raises(CapExceededError) as caught:
        system._solve_exact([F(1), F(1)])
    assert caught.value.payload["stage"] == "elimination"
    assert caught.value.payload["size"] == 2 * 2101 > sos.EXACT_BITS_CAP


# --- the LDL^T solve of the normal equations against Gauss-Jordan ----------

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


def _times(rows, v):
    return [sum((a * b for a, b in zip(row, v)), F(0)) for row in rows]


def _transpose(rows, width):
    return [[row[e] for row in rows] for e in range(width)]


@st.composite
def _normal_systems(draw):
    """``(B, w, right-hand sides)`` for M = B diag(1/w) B^T of every rank.

    B is ``left @ right`` with ``rank`` inner columns, so M's rank is at
    most ``rank``; each side is B times a point, moved off M's range or not.
    """
    dim = draw(st.integers(1, 6))
    width = draw(st.integers(0, 7))
    rank = draw(st.integers(0, min(dim, width)))
    left = [[draw(_ENTRIES) for _ in range(rank)] for _ in range(dim)]
    right = [[draw(_ENTRIES) for _ in range(width)] for _ in range(rank)]
    b = [_times(_transpose(right, width), row) for row in left]
    w = [draw(st.sampled_from((1, 2))) for _ in range(width)]
    sides = []
    for _ in range(draw(st.integers(1, 3))):
        rhs = _times(b, [draw(_ENTRIES) for _ in range(width)])
        if draw(st.booleans()):
            rhs = [r + draw(_ENTRIES) for r in rhs]
        sides.append(rhs)
    return b, w, sides


def _solver(m):
    """A system holding only its normal matrix, which is all the solve reads."""
    system = object.__new__(GramSystem)
    system.m_exact = m
    return system


@settings(max_examples=100, deadline=None)
@given(_normal_systems())
@example(([[F(1), F(0)], [F(1), F(1)]], [1, 2], [[F(1), F(-1)]]))    # full rank
@example(([[F(1)], [F(2)]], [1], [[F(1), F(2)]]))                    # rank 1, consistent
@example(([[F(1)], [F(2)]], [1], [[F(1), F(3)]]))                    # rank 1, inconsistent
@example(([[], []], [], [[F(0), F(0)], [F(0), F(1)]]))               # rank 0
def test_ldlt_solve_matches_the_gauss_jordan_solve(case):
    # a singular M has many solutions y, but B^T y, which moves the
    # projected point, is the same for all of them
    b, w, sides = case
    width = len(w)
    bw = [[v / w[e] for e, v in enumerate(row)] for row in b]
    m = [_times(bw, row) for row in b]
    system = _solver(m)
    b_t = _transpose(b, width)
    for rhs in sides:
        expected = _reference_solve_exact(system, rhs)
        got = system._solve_exact(rhs)
        if expected is None:
            assert got is None
        else:
            assert got is not None and all(type(v) is F for v in got)
            assert _times(m, got) == rhs
            assert _times(b_t, got) == _times(b_t, expected)


def _reference_exact_correction(system, x, b):
    """``exact_correction`` through the Gauss-Jordan solve."""
    residual = b[:]
    for value, col in zip(x, system.cols):
        for row, v in col:
            residual[row] -= v * value
    y = _reference_solve_exact(system, residual)
    if y is None:
        return None
    return [value + sum((v * y[row] for row, v in col), F(0)) / weight
            for value, col, weight in zip(x, system.cols, system.weights)]


_SMALL = st.fractions(-4, 4, max_denominator=4)


@st.composite
def _facet_systems(draw):
    """A facet system of random constraints, parity and budget 2 to 4."""
    n = draw(st.integers(1, 2))
    shape = BlockShape(n, 0)
    monos = [e for e in iproduct(range(3), repeat=n) if sum(e) <= 2]
    gens = tuple(
        BlockedPoly(shape, {e: draw(_SMALL) for e in monos}) for _ in range(draw(st.integers(1, 2)))
    )
    parity = tuple(draw(st.integers(0, 1)) for _ in range(n + 1))
    budget = draw(st.integers(2, 4))
    return GramSystem(shape, gens, facet_bases(shape, gens, budget, facet_product(shape, parity)))


@settings(max_examples=60, deadline=None)
@given(_facet_systems(), st.randoms(use_true_random=False))
def test_projection_does_not_depend_on_the_solver(system, rng):
    def point():
        return [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in system.entries]

    for _ in range(3):
        b = [F(0)] * len(system.row_of)
        for value, col in zip(point(), system.cols):
            for row, c in col:
                b[row] += c * value
        if rng.random() < 0.5:
            b = [v + F(rng.randrange(-1, 2)) for v in b]
        x = point()
        assert system.exact_correction(x, b) == _reference_exact_correction(system, x, b)
