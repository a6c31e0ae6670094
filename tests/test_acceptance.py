"""Acceptance suite: one test per shipped guarantee.

Each test here states one of the package's headline promises over the
shipped sample corpus (or a frozen hand oracle) and fails loudly if the
promise is broken.  Everything is exact rational arithmetic unless a
tolerance is part of the promise itself.
"""
import itertools
import json
import random
import time
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from cylcert import cli
from cylcert.certificate import (
    BoundInputs,
    E_UPPER,
    degree_laws,
    theorem_bound,
    verify_certificate,
)
from cylcert.errors import SosStalledError, VerificationError
from cylcert.pipeline import certify_problem
from cylcert.poly import BlockShape, BlockedPoly, expand_identity
from cylcert.polya import polya_saturate
from cylcert.problem import SphereBlock, Variant, problem_from_obj
from cylcert.putinar_base import base_cache_from_obj, base_cache_to_obj
from cylcert.serialize import frac_from_str, load_json
from cylcert.sos import sos_decompose
from helpers import (
    check_constraint_scales,
    check_sphere_constants,
    check_x_constants,
    pipeline_scans,
    random_problem,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "sample_problems"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))


@pytest.fixture(scope="module")
def corpus_runs():
    """Certify every shipped sample in-process, keeping all evidence."""
    runs = {}
    for path in CORPUS:
        problem = problem_from_obj(load_json(str(path)))
        runs[path.stem] = (problem, certify_problem(problem))
    return runs


def test_criterion_1_corpus_certifies_within_time(tmp_path):
    """>= 6 desk-scale instances across all variants; >= 4 exact; <= 10 min each."""
    assert len(CORPUS) >= 6
    seen_variants, seen_n, seen_r, seen_m = set(), set(), set(), set()
    exact = 0
    for path in CORPUS:
        problem = problem_from_obj(load_json(str(path)))
        seen_variants.add(problem.variant)
        seen_n.add(problem.n)
        seen_r.add(problem.r if not problem.variant.is_split else problem.shape.r1 + problem.shape.r2)
        seen_m.add(problem.m)
        assert problem.n in (1, 2) and problem.m in (2, 4) and problem.d <= 2

        out = tmp_path / (path.stem + ".cert.json")
        started = time.monotonic()
        code = cli.main(["certify", "--input", str(path), "--output", str(out)])
        elapsed = time.monotonic() - started
        assert code in (0, 2), f"{path.stem}: exit {code}"
        assert elapsed <= 600, f"{path.stem}: took {elapsed:.0f}s"

        assert json.loads(out.read_text())["tier"] == "exact"
        exact += 1
        assert cli.main(
            ["verify", "--problem", str(path), "--certificate", str(out)]
        ) == 0
    assert exact >= 4
    assert seen_variants == set(Variant)
    assert seen_n == {1, 2} and seen_r == {1, 2} and seen_m == {2, 4}


def test_criterion_2_identity_is_exact_and_tamper_evident(corpus_runs):
    """f - sigma_0 - sum sigma_i g_i == 0 exactly; 1e-9 tampering is caught."""
    for name, (problem, res) in corpus_runs.items():
        cert = res.certificate
        total = expand_identity(cert.sigmas[0], ())
        for sigma, g in zip(cert.sigmas[1:], problem.g):
            total = total + expand_identity(sigma, ()) * g
        assert total == problem.f, name

        sigma = cert.sigmas[0]
        square = sigma.squares[0]
        expo = sorted(square.terms)[0]
        terms = dict(square.terms)
        terms[expo] = terms[expo] + F(1, 10**9)
        bad_sigma = replace(
            sigma, squares=(BlockedPoly(square.shape, terms),) + sigma.squares[1:]
        )
        bad = replace(cert, sigmas=(bad_sigma,) + cert.sigmas[1:])
        with pytest.raises(VerificationError) as err:
            verify_certificate(problem, bad)
        assert err.value.payload["kind"] == "IDENTITY_FAIL", name


def test_criterion_3_uniform_and_increment_bounds_dominate_samples():
    """The scans' Lipschitz constants and the constraint scales hold exactly.

    Over random problems of every variant, each scan the pipeline builds
    (side condition, floor, perturbed excess check) gets exact pairs in
    the simplex and on each sphere; each g_i stays within its scale.
    """
    rng = random.Random(37)
    for variant in Variant:
        for _ in range(12):
            problem = random_problem(rng, variant)
            scans = pipeline_scans(problem)
            assert {scan.target.shape.n for scan in scans} == {problem.n}
            for scan in scans:
                check_x_constants(scan, rng, pairs=6)
                check_sphere_constants(scan, rng, pairs=3)
            check_constraint_scales(problem, rng, samples=20)


def test_criterion_4_saturation_oracle_and_cap(corpus_runs):
    """Hand-expanded exponent for the bump target; found N within the cap."""
    sh = BlockShape(1, 1, 0, ("Z",))
    bump = BlockedPoly(sh, {
        (2, 2, 0): F(2), (2, 0, 2): F(2),
        (1, 2, 0): F(-2), (1, 0, 2): F(-2),
        (0, 2, 0): F(1), (0, 0, 2): F(1),
    })
    blocks = (SphereBlock(sh.block_indices("y1") + sh.block_indices("Z"), 2),)
    res = polya_saturate(bump, F(1, 2), blocks)
    assert res.exponent == 1

    for name, (_problem, run) in corpus_runs.items():
        polya = run.diagnostics.get("polya")
        if polya is not None:
            assert polya["exponent"] <= polya["cap"], name


def test_criterion_5_square_sum_round_trip_and_motzkin():
    """100 exact bivariate quartic square sums round-trip; Motzkin stalls."""
    rng = random.Random(4242)
    shape = BlockShape(2, 0)
    monos = [e for e in itertools.product(range(3), repeat=2) if sum(e) <= 2]
    for trial in range(100):
        total = BlockedPoly.zero(shape)
        for _ in range(rng.randrange(2, 5)):
            terms = {}
            for e in monos:
                if rng.random() < 0.6:
                    terms[e] = F(rng.randrange(-4, 5), rng.randrange(1, 4))
            if terms:
                q = BlockedPoly(shape, terms)
                total = total + q * q
        # a slice of every basis square keeps the witness well inside the cone
        for e in monos:
            total = total + (BlockedPoly(shape, {e: F(1)}) ** 2).scale(F(1, 8))
        deco = sos_decompose(total)
        assert expand_identity(deco, ()) == total, f"trial {trial}"
        assert all(w > 0 for w in deco.weights)

    x, y = BlockedPoly.variable(shape, 0), BlockedPoly.variable(shape, 1)
    motzkin = (x**4) * (y**2) + (x**2) * (y**4) - ((x * y) ** 2).scale(3) \
        + BlockedPoly.constant(shape, 1)
    with pytest.raises(SosStalledError):
        sos_decompose(motzkin)


def test_criterion_6_degree_accounting(corpus_runs):
    """Term-one degrees by formula, every sigma within its law, c9 from the cache."""
    for name, (problem, res) in corpus_runs.items():
        meta = res.certificate.meta
        # degree of the padding factor: m, plus 2 for the second block when split
        vdeg = problem.m + (2 if problem.variant.is_split else 0)
        absorption, cap = degree_laws(
            problem, meta.lam, meta.k, meta.polya_exponent, meta.ell, meta.c9
        )
        expected = tuple(vdeg + (2 * meta.k + 1) * g.block_degree("x") for g in problem.g)
        assert absorption == (expected if meta.lam else ()), name
        assert cap == vdeg + meta.polya_exponent + meta.ell + meta.c9, name

        decoded = base_cache_from_obj(
            base_cache_to_obj("probe", res.base_cache), "probe", problem.shape
        )
        c9 = 0
        gdegs = [0] + [g.block_degree("x") for g in problem.g]
        for witness in decoded.values():
            for tau, gdeg in zip(witness, gdegs, strict=True):
                for q in tau.squares:
                    c9 = max(c9, 2 * q.total_degree() + gdeg)
        assert meta.c9 <= c9 or not decoded, name
        cap = vdeg + meta.polya_exponent + meta.ell + c9
        measured = res.diagnostics["verify"]["product_degrees"]
        assert measured[0] <= cap, name
        for i, degree in enumerate(measured[1:]):
            bound = max(absorption[i], cap) if absorption else cap
            assert degree <= bound, name


def test_criterion_7_perturbation_constraint(corpus_runs):
    """2k+1 >= 4*lambda*s/floor exactly, and the evidence clears floor/2."""
    checked = 0
    for name, (problem, res) in corpus_runs.items():
        pert = res.diagnostics.get("perturbation")
        if pert is None:
            assert res.certificate.meta.lam == 0
            continue
        lam = frac_from_str(pert["lambda"])
        k = pert["k"]
        floor = res.certificate.meta.fstar_lb
        assert F(2 * k + 1) >= 4 * lam * problem.s / floor, name
        evidence_lb = frac_from_str(pert["evidence"]["lower_bound"])
        assert evidence_lb >= floor / 2, name
        checked += 1
    assert checked >= 4


def test_criterion_8_bound_evaluator():
    """Frozen hand value, monotonicity, and the rescaling tie-in."""
    frozen = BoundInputs(c=F(1), d=1, m=2, r=1, n=1, f_norm=F(1), fstar=F(1))
    assert theorem_bound("1.2", frozen) == 6 * E_UPPER**9

    base = BoundInputs(c=F(1), d=2, m=2, r=2, n=2, f_norm=F(2), fstar=F(1, 2))
    for formula in ("1.1", "1.2", "1.3", "1.4", "1.5", "2.3"):
        value = theorem_bound(formula, base)
        assert theorem_bound(formula, replace(base, f_norm=F(3))) >= value
        assert theorem_bound(formula, replace(base, d=3)) >= value
        assert theorem_bound(formula, replace(base, m=4)) >= value
        assert theorem_bound(formula, replace(base, r=3)) >= value
        assert theorem_bound(formula, replace(base, n=3)) >= value
        assert theorem_bound(formula, replace(base, fstar=F(1, 4))) >= value

    scaled = replace(base, f_norm=base.f_norm * F(3 * base.n) ** base.d)
    assert theorem_bound("1.3", base) == theorem_bound("2.3", scaled)


def test_criterion_9_determinism(tmp_path):
    """The same problem file gives byte-identical certificate files."""
    for stem in ("c1_interval_line_quadratic", "c4_pure_square_quartic",
                 "c7_box_frame_line_quadratic"):
        src = CORPUS_DIR / (stem + ".json")
        first = tmp_path / (stem + ".a.json")
        second = tmp_path / (stem + ".b.json")
        assert cli.main(
            ["certify", "--input", str(src), "--output", str(first)]
        ) in (0, 2)
        assert cli.main(
            ["certify", "--input", str(src), "--output", str(second)]
        ) in (0, 2)
        assert first.read_bytes() == second.read_bytes(), stem
