"""The certification chain: validate, rescale, certify, self-verify."""
import itertools
from fractions import Fraction as F

import pytest

from cylcert.certificate import certificate_to_obj, verify_certificate
from cylcert.errors import (
    IndefiniteConditionError,
    NonpositiveWitnessError,
    ValidationError,
)
from cylcert.pipeline import certify_problem
from cylcert.poly import BlockShape, BlockedPoly
from cylcert.problem import BOX, SIMPLEX, CylinderProblem, Variant
from cylcert.serialize import canonical_dumps
from cylcert.sos import sos_decompose


def line_problem(f_builder, g_builder=None, *, m=2, frame=SIMPLEX, variant=Variant.R1_ANY_M, r1=1):
    sh = BlockShape(1, r1, 0)
    x = BlockedPoly.variable(sh, 0)
    ys = [BlockedPoly.variable(sh, i) for i in sh.block_indices("y1")]
    one = BlockedPoly.constant(sh, 1)
    if g_builder is None:
        g = ((x - one.scale(F(1, 4))) * (one.scale(F(1, 2)) - x),)
    else:
        g = g_builder(x, one)
    return CylinderProblem(
        shape=sh, variant=variant, m=m, f=f_builder(x, ys, one), g=g, frame=frame
    )


@pytest.fixture(scope="module")
def line_result():
    p = line_problem(lambda x, ys, one: one.scale(8) + x.scale(8) + (ys[0] * ys[0]).scale(8))
    return p, certify_problem(p)


def test_line_instance_certifies_exact(line_result):
    p, res = line_result
    report = verify_certificate(p, res.certificate)
    assert res.diagnostics["verify"] == report.to_obj()


def test_diagnostics_cover_every_stage(line_result):
    _p, res = line_result
    for stage in ("validate", "conditions", "fstar", "perturbation",
                  "polya", "form_sos", "base", "verify"):
        assert stage in res.diagnostics
    assert res.diagnostics["validate"]["ok"]
    assert res.certificate.meta.fstar_lb > 0
    assert res.base_cache


def test_base_cache_holds_only_the_parity_class_of_the_forms(line_result):
    # every coefficient-form key has total degree ell + N, so only the
    # parity vectors with that sum mod 2 are ever looked up
    p, res = line_result
    degree = res.diagnostics["polya"]["ell"] + res.diagnostics["polya"]["exponent"]
    want = {
        parity for parity in itertools.product((0, 1), repeat=p.n + 1)
        if sum(parity) % 2 == degree % 2
    }
    assert set(res.base_cache) == want


def test_reusing_the_base_cache_changes_nothing(line_result):
    p, res = line_result
    again = certify_problem(p, precomputed_base=res.base_cache)
    assert canonical_dumps(certificate_to_obj(again.certificate)) == canonical_dumps(
        certificate_to_obj(res.certificate)
    )
    # the diagnostics name the parities taken from the cache
    cold, warm = res.diagnostics["base"], again.diagnostics["base"]
    assert cold["reused"] == []
    assert warm["reused"] == warm["parities"] == cold["parities"]


def test_box_frame_round_trip():
    p = line_problem(
        lambda x, ys, one: one.scale(24) + x.scale(8) + (ys[0] * ys[0]).scale(8),
        lambda x, one: (one.scale(F(1, 4)) - x * x,),
        frame=BOX,
    )
    res = certify_problem(p)
    assert res.diagnostics["rescale"] == {"n": 1, "scale": "1/2", "offset": "1/2"}
    assert res.certificate.problem_hash == p.problem_hash()
    verify_certificate(p, res.certificate)


def test_pure_square_shortcut():
    p = line_problem(
        lambda x, ys, one: (one + ys[0] * ys[0] + ys[1] * ys[1]) ** 2,
        m=4,
        variant=Variant.QUARTIC_R2,
        r1=2,
    )
    res = certify_problem(p)
    assert res.diagnostics["shortcut"]["used"]
    assert res.certificate.meta.lam == 0
    assert not res.base_cache
    verify_certificate(p, res.certificate)


def test_nonpositive_target_is_refused_with_witness():
    p = line_problem(lambda x, ys, one: ys[0] * ys[0] - one.scale(9))
    with pytest.raises(NonpositiveWitnessError) as err:
        certify_problem(p)
    assert "witness" in err.value.payload


def test_degenerate_leading_form_is_refused():
    p = line_problem(
        lambda x, ys, one: one.scale(8) + (ys[0] * ys[1]) ** 2,
        m=4,
        variant=Variant.QUARTIC_R2,
        r1=2,
    )
    with pytest.raises(IndefiniteConditionError) as err:
        certify_problem(p)
    assert "witness" in err.value.payload


def test_feasible_points_outside_the_frame_are_refused():
    p = line_problem(
        lambda x, ys, one: one.scale(8) + (ys[0] * ys[0]).scale(8),
        lambda x, one: ((x - one.scale(2)) * (one.scale(3) - x),),
    )
    with pytest.raises(ValidationError) as err:
        certify_problem(p)
    assert "violations" in err.value.payload


# --- d = 0: the sum of squares before the floor scan -----------------------

def _quartic_r2(constant, y2_squared, *, frame=SIMPLEX):
    """``constant + y2_squared*y2^2 + 2 y1^2 + (y1^2 + y2^2)^2`` on c4's line."""
    def f(x, ys, one):
        y1, y2 = ys[0] * ys[0], ys[1] * ys[1]
        return one.scale(constant) + y2.scale(y2_squared) + y1.scale(2) + (y1 + y2) ** 2

    def g(x, one):
        return (one.scale(F(-1, 8)) + x.scale(F(3, 4)) - x * x,)

    return line_problem(f, g, m=4, frame=frame, variant=Variant.QUARTIC_R2, r1=2)


@pytest.mark.parametrize("problem", [
    # c4 with its y2^2 coefficient -1: the floor scan's sphere cover ran
    # out of budget (exit 13) before the sum of squares was tried
    _quartic_r2(1, -1),
    # a box input whose floor, 10^-22, needs a finer cover than the budget
    _quartic_r2(F(1, 10**22), 2, frame=BOX),
    # zero at y = (0, +-1): the certificate states the floor 0
    _quartic_r2(1, -2),
], ids=["c4neg", "tiny-floor-box", "zero-on-a-circle"])
def test_d0_sum_of_squares_needs_no_floor_scan(problem, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the floor scan ran")

    monkeypatch.setattr("cylcert.pipeline.certified_cylinder_min", no_scan)
    res = certify_problem(problem)
    assert res.diagnostics["shortcut"]["used"]
    assert "fstar" not in res.diagnostics
    assert res.certificate.meta.fstar_lb == 0
    assert not any(sigma.weights for sigma in res.certificate.sigmas[1:])
    verify_certificate(problem, res.certificate)


@pytest.mark.parametrize("problem", [
    _quartic_r2(-1, 2),
    # y^32 - 1: its Gram basis, 17 monomials, is over the cap of 16
    line_problem(lambda x, ys, one: ys[0] ** 32 - one, m=32),
], ids=["stalled", "basis-over-the-cap"])
def test_d0_target_negative_at_the_origin_falls_through_to_the_scan(problem, monkeypatch):
    # the sum-of-squares search, stalled or refused, hands over to the
    # floor scan, which refuses the target with the point where it is
    # negative
    tried = []

    def record(f):
        tried.append(f)
        return sos_decompose(f)

    monkeypatch.setattr("cylcert.pipeline.sos_decompose", record)
    with pytest.raises(NonpositiveWitnessError) as err:
        certify_problem(problem)
    assert tried == [problem.f]
    assert err.value.exit_code == 12
    # the compactified target at x = 1/2 and the sphere's pole
    assert err.value.payload["witness"]["value"] == "-1"
