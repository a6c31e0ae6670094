"""Certificate assembly, verification, serialization, and bound formulas."""
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from cylcert.certificate import (
    BoundInputs,
    E_UPPER,
    EXP_UPPER_CAP,
    base_cache_from_obj,
    base_cache_to_obj,
    assemble,
    certificate_from_obj,
    certificate_to_obj,
    compose_with_frame,
    exp_upper,
    integer_root_upper,
    rational_power_upper,
    sos_only_certificate,
    theorem_bound,
    variant_degree,
    verify_certificate,
    witness_from_obj,
)
from cylcert.errors import SchemaError, ValidationError, VerificationError
from cylcert.perturb import find_perturbation
from cylcert.poly import BlockShape, BlockedPoly
from cylcert.polya import polya_saturate
from cylcert.problem import (
    BOX,
    SIMPLEX,
    CylinderProblem,
    Variant,
    rescale_to_simplex,
)
from cylcert.putinar_base import base_certificates, parity_vector
from cylcert.serialize import canonical_dumps
from cylcert.sos import SosDecomposition, sos_decompose


def interval_problem():
    """f = 8 + 8x + 8Y^2 over S = [1/4, 1/2], already in the simplex frame."""
    sh = BlockShape(1, 1, 0)
    x = BlockedPoly.variable(sh, 0)
    y = BlockedPoly.variable(sh, sh.block_indices("y1")[0])
    one = BlockedPoly.constant(sh, 1)
    f = one.scale(8) + x.scale(8) + (y * y).scale(8)
    g = (x - one.scale(F(1, 4))) * (one.scale(F(1, 2)) - x)
    return CylinderProblem(
        shape=sh, variant=Variant.R1_ANY_M, m=2, f=f, g=(g,), frame=SIMPLEX
    )


def certify(problem, fstar_lb):
    pert = find_perturbation(problem, fstar_lb)
    _, blocks = problem.homogenized()
    pol = polya_saturate(pert.target, pert.threshold, blocks)
    parities = {parity_vector(key) for key in pol.forms}
    base = base_certificates(problem.shape, problem.g, parities)
    cert = assemble(problem, pert.lam, pert.k, pol, base, fstar_lb=pert.fstar_lb)
    return cert, base


@pytest.fixture(scope="module")
def interval_cert():
    problem = interval_problem()
    cert, base = certify(problem, F(8))
    return problem, cert, base


# --- round trip ------------------------------------------------------------

def test_assembled_certificate_verifies_exact(interval_cert):
    problem, cert, _base = interval_cert
    assert certificate_to_obj(cert)["tier"] == "exact"
    report = verify_certificate(problem, cert)
    assert len(report.sigma_degrees) == problem.s + 1


def test_identity_is_a_term_map_equality(interval_cert):
    problem, cert, _base = interval_cert
    total = cert.sigmas[0].as_poly()
    for sigma, g in zip(cert.sigmas[1:], problem.g):
        total = total + sigma.as_poly() * g
    assert total == problem.f


def test_degree_report_matches_formulas(interval_cert):
    problem, cert, _base = interval_cert
    meta = cert.meta
    vdeg = variant_degree(problem.variant, problem.m)
    for i, g in enumerate(problem.g):
        expected = vdeg + (2 * meta.k + 1) * g.block_degree("x")
        assert meta.degrees.first_term[i] == expected
    cap = vdeg + meta.polya_exponent + meta.ell + meta.c9
    assert meta.degrees.cap == cap
    assert all(d <= cap for d in meta.degrees.second_term)


def test_c9_matches_the_witnesses_used(interval_cert):
    problem, cert, base = interval_cert
    best = 0
    for witness in base.values():
        degs = [2 * q.total_degree() for q in witness.sigma0.squares]
        best = max([best] + degs)
        for idx, tau in witness.multipliers:
            gdeg = problem.g[idx].block_degree("x")
            best = max(
                [best] + [2 * q.total_degree() + gdeg for q in tau.squares]
            )
    assert cert.meta.c9 == best


# --- tampering -------------------------------------------------------------

def tamper_square(cert, sigma_index, delta):
    sigma = cert.sigmas[sigma_index]
    square = sigma.squares[0]
    expo = sorted(square.terms)[0]
    terms = dict(square.terms)
    terms[expo] = terms[expo] + delta
    squares = (BlockedPoly(square.shape, terms),) + sigma.squares[1:]
    sigmas = list(cert.sigmas)
    sigmas[sigma_index] = replace(sigma, squares=squares)
    return replace(cert, sigmas=tuple(sigmas))


def test_tiny_coefficient_tamper_is_caught(interval_cert):
    problem, cert, _base = interval_cert
    bad = tamper_square(cert, 0, F(1, 10**9))
    with pytest.raises(VerificationError) as err:
        verify_certificate(problem, bad)
    assert err.value.payload["kind"] == "IDENTITY_FAIL"


def test_flipped_weight_is_caught(interval_cert):
    problem, cert, _base = interval_cert
    sigma = cert.sigmas[0]
    weights = (-sigma.weights[0],) + sigma.weights[1:]
    sigmas = (replace(sigma, weights=weights),) + cert.sigmas[1:]
    bad = replace(cert, sigmas=sigmas)
    with pytest.raises(VerificationError) as err:
        verify_certificate(problem, bad)
    assert err.value.payload["kind"] == "NEGATIVE_WEIGHT"


def test_wrong_problem_is_caught(interval_cert):
    problem, cert, _base = interval_cert
    bad = replace(cert, problem_hash="0" * 64)
    with pytest.raises(VerificationError) as err:
        verify_certificate(problem, bad)
    assert err.value.payload["kind"] == "IDENTITY_FAIL"


def test_metadata_degree_tampering_is_caught(interval_cert):
    problem, cert, _base = interval_cert
    meta = cert.meta
    for broken in (
        replace(meta, c9=meta.c9 + 1),
        replace(meta, degrees=replace(meta.degrees, cap=meta.degrees.cap + 2)),
        replace(
            meta,
            degrees=replace(
                meta.degrees,
                first_term=tuple(d + 2 for d in meta.degrees.first_term),
            ),
        ),
    ):
        with pytest.raises(VerificationError) as err:
            verify_certificate(problem, replace(cert, meta=broken))
        assert err.value.payload["kind"] == "DEGREE_METADATA_MISMATCH"


# --- the one tier ----------------------------------------------------------

def test_declared_residual_is_ignored(interval_cert):
    # a residue far below a declared bound is still an identity failure
    problem, cert, _base = interval_cert
    obj = certificate_to_obj(tamper_square(cert, 0, F(1, 10**12)))
    obj["metadata"]["residual"] = "1/100000000"
    fuzzed = certificate_from_obj(obj, problem.shape)
    with pytest.raises(VerificationError) as err:
        verify_certificate(problem, fuzzed)
    assert err.value.payload["kind"] == "IDENTITY_FAIL"
    assert F(err.value.payload["residual"]) > 0


@pytest.mark.parametrize("tier", ["numeric", "best", "", None, True])
def test_only_the_exact_tier_is_read(interval_cert, tier):
    problem, cert, _base = interval_cert
    obj = certificate_to_obj(cert)
    obj["tier"] = tier
    with pytest.raises(SchemaError):
        certificate_from_obj(obj, problem.shape)


# --- serialization ---------------------------------------------------------

def test_certificate_serialization_round_trip(interval_cert):
    problem, cert, _base = interval_cert
    obj = certificate_to_obj(cert)
    back = certificate_from_obj(obj, problem.shape)
    verify_certificate(problem, back)
    assert canonical_dumps(certificate_to_obj(back)) == canonical_dumps(obj)


def test_assembly_is_deterministic():
    problem = interval_problem()
    one, _ = certify(problem, F(8))
    two, _ = certify(problem, F(8))
    assert canonical_dumps(certificate_to_obj(one)) == canonical_dumps(
        certificate_to_obj(two)
    )


def test_base_cache_round_trip(interval_cert):
    problem, _cert, base = interval_cert
    obj = base_cache_to_obj("key-1", base)
    back = base_cache_from_obj(obj, "key-1", problem.shape)
    assert set(back) == set(base)
    for parity, witness in back.items():
        original = base[parity]
        assert witness.verify(problem.g)
        assert witness.target == original.target
        assert witness.budget == original.budget
        assert witness.sigma0.weights == original.sigma0.weights
        assert witness.sigma0.squares == original.sigma0.squares
        assert [idx for idx, _ in witness.multipliers] == [
            idx for idx, _ in original.multipliers
        ]
    assert base_cache_from_obj(obj, "other-key", problem.shape) == {}
    assert base_cache_from_obj({"bogus": 1}, "key-1", problem.shape) == {}


def test_cached_witness_integers_are_read_strictly(interval_cert):
    problem, _cert, base = interval_cert
    parity, witness = next((p, w) for p, w in sorted(base.items()) if w.multipliers)
    key = "".join(map(str, parity))
    for field, bad in (("multipliers", "0"), ("multipliers", True), ("budget", 4.0)):
        obj = base_cache_to_obj("key-1", base)
        entry = obj["witnesses"][key]
        if field == "budget":
            entry["budget"] = bad
        else:
            entry["multipliers"][0][0] = bad
        with pytest.raises(SchemaError):
            witness_from_obj(entry, problem.shape)
        assert parity not in base_cache_from_obj(obj, "key-1", problem.shape)


# --- frame pull-back -------------------------------------------------------

def test_box_frame_certificate_pulls_back():
    sh = BlockShape(1, 1, 0)
    x = BlockedPoly.variable(sh, 0)
    y = BlockedPoly.variable(sh, sh.block_indices("y1")[0])
    one = BlockedPoly.constant(sh, 1)
    # f = 24 + 8x + 8Y^2 > 0 on the box S = [-1/2, 1/2] x R.
    f = one.scale(24) + x.scale(8) + (y * y).scale(8)
    g = one.scale(F(1, 4)) - x * x
    box = CylinderProblem(
        shape=sh, variant=Variant.R1_ANY_M, m=2, f=f, g=(g,), frame=BOX
    )
    moved, record = rescale_to_simplex(box)
    # The padded target (16 + 16x)Z^2 + 8Y^2 bottoms out at 8 on Z = 0.
    cert, _base = certify(moved, F(8))
    pulled = compose_with_frame(cert, record, box)
    assert pulled.problem_hash == box.problem_hash()
    verify_certificate(box, pulled)
    assert pulled.meta.rescale == record


# --- the degenerate shortcut ----------------------------------------------

def test_sos_only_certificate_for_constant_x_dependence():
    sh = BlockShape(1, 2, 0)
    x = BlockedPoly.variable(sh, 0)
    y1 = BlockedPoly.variable(sh, sh.block_indices("y1")[0])
    y2 = BlockedPoly.variable(sh, sh.block_indices("y1")[1])
    one = BlockedPoly.constant(sh, 1)
    f = one.scale(8) + y1**4 + y2**4
    problem = CylinderProblem(
        shape=sh,
        variant=Variant.QUARTIC_R2,
        m=4,
        f=f,
        g=(x * (one - x),),
        frame=SIMPLEX,
    )
    sigma0 = sos_decompose(f)
    cert = sos_only_certificate(problem, sigma0, fstar_lb=F(8))
    assert cert.meta.lam == 0
    verify_certificate(problem, cert)
    assert all(not s.weights for s in cert.sigmas[1:])


# --- bound formulas --------------------------------------------------------

def test_integer_root_upper():
    assert integer_root_upper(0, 3) == 0
    assert integer_root_upper(1, 5) == 1
    assert integer_root_upper(8, 3) == 2
    assert integer_root_upper(9, 3) == 3
    assert integer_root_upper(10**12, 2) == 10**6
    assert integer_root_upper(10**12 + 1, 2) == 10**6 + 1


def test_integer_root_upper_beyond_the_float_range():
    for degree in (2, 3, 7):
        root = 3**700 + 12345
        value = root**degree
        assert value > 2**1024
        assert integer_root_upper(value, degree) == root
        assert integer_root_upper(value + 1, degree) == root + 1
        assert integer_root_upper(value - 1, degree) == root


def test_integer_root_upper_is_the_least_root_ceiling():
    rng = random.Random(31)
    for _ in range(200):
        degree = rng.choice((1, 2, 3, 5, 64, 1000, 10**5, rng.randrange(1, 10**5)))
        value = rng.getrandbits(rng.randrange(1, 3000))
        t = integer_root_upper(value, degree)
        assert t**degree >= value
        assert t == 0 or (t - 1) ** degree < value


def test_exp_upper_refuses_powers_past_its_cap():
    with pytest.raises(ValidationError):
        exp_upper(F(EXP_UPPER_CAP) + F(1, 2))


def test_rational_power_upper_bounds():
    assert rational_power_upper(F(4), F(3)) == 64
    half = rational_power_upper(F(2), F(1, 2))
    assert half * half >= 2
    assert half <= 2
    small = rational_power_upper(F(1, 4), F(1, 2))
    assert small >= F(1, 2)


def test_exp_upper_values():
    assert exp_upper(F(0)) == 1
    assert exp_upper(F(2)) == E_UPPER**2
    assert exp_upper(F(5, 2)) == E_UPPER**3
    assert float(exp_upper(F(1))) >= 2.718281828


def frozen_inputs(**overrides):
    base = dict(c=F(1), d=1, m=2, r=1, n=1, f_norm=F(1), fstar=F(1))
    base.update(overrides)
    return BoundInputs(**base)


def test_bound_reproduces_the_hand_value():
    # prefactor 1*(2+1)*2 = 6, argument 1*3*1*3/1 = 9: exactly 6 e^9.
    assert theorem_bound("1.2", frozen_inputs()) == 6 * E_UPPER**9


def test_bound_monotonicity_probes():
    base = frozen_inputs(c=F(1), d=2, m=2, r=2, n=2, f_norm=F(2), fstar=F(1, 2))
    for formula in ("1.1", "1.2", "1.3", "1.4", "1.5", "2.3"):
        value = theorem_bound(formula, base)
        assert theorem_bound(formula, replace(base, f_norm=F(3))) >= value
        assert theorem_bound(formula, replace(base, d=3)) >= value
        assert theorem_bound(formula, replace(base, m=4)) >= value
        assert theorem_bound(formula, replace(base, r=3)) >= value
        assert theorem_bound(formula, replace(base, n=3)) >= value
        assert theorem_bound(formula, replace(base, fstar=F(1, 4))) >= value


def test_bound_scaling_ties_the_two_formulas():
    inp = frozen_inputs(d=2, n=2, f_norm=F(3, 2), fstar=F(1, 3))
    substituted = replace(inp, f_norm=inp.f_norm * F(3 * inp.n) ** inp.d)
    assert theorem_bound("1.3", inp) == theorem_bound("2.3", substituted)


def test_bound_with_fractional_constant_is_an_upper_bound():
    import math

    inp = frozen_inputs(c=F(1, 2), d=2, n=1, f_norm=F(4), fstar=F(1))
    value = theorem_bound("2.3", inp)
    # argument = 16, exponent = 16^(1/2) = 4: the float value is a
    # safe comparison point well below the rational ceiling.
    assert float(value) >= F(1, 2) * math.exp(4.0)


def test_bound_input_validation():
    with pytest.raises(ValidationError):
        frozen_inputs(c=F(0))
    with pytest.raises(ValidationError):
        frozen_inputs(fstar=F(-1))
    with pytest.raises(ValidationError):
        frozen_inputs(m=3)
    with pytest.raises(ValidationError):
        theorem_bound("9.9", frozen_inputs())
