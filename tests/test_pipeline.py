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
