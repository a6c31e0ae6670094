"""Certificate assembly, verification, serialization, and bound formulas."""
from __future__ import annotations

import json
import random
from dataclasses import replace
from fractions import Fraction
from fractions import Fraction as F
from pathlib import Path
from typing import Mapping

import pytest
from helpers import family_module
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylcert import pipeline
from cylcert.certificate import (
    BoundInputs,
    Certificate,
    CertificateMeta,
    E_UPPER,
    EXP_UPPER_CAP,
    certificate_from_obj,
    certificate_to_obj,
    check_representation,
    compose_with_frame,
    exp_upper,
    integer_root_upper,
    rational_power_upper,
    degree_laws,
    theorem_bound,
    verify_certificate,
)
from cylcert.errors import (
    SchemaError,
    ValidationError,
    VerificationError,
)
from cylcert.perturb import factor_squares, find_perturbation, normalized_constraints
from cylcert.pipeline import assemble, sos_only_certificate
from cylcert.poly import (
    BlockShape,
    BlockedPoly,
    SosDecomposition,
    expand_identity,
    substitute,
)
from cylcert.polya import PolyaResult, polya_saturate
from cylcert.problem import (
    BOX,
    SIMPLEX,
    CylinderProblem,
    Variant,
    problem_from_obj,
    rescale_to_simplex,
)
from cylcert.putinar_base import (
    Parity,
    Witness,
    base_cache_from_obj,
    base_cache_to_obj,
    base_certificates,
    even_square_root,
    facet_product,
    parity_vector,
    simplex_u,
)
from cylcert.serialize import canonical_dumps
from cylcert.sos import sos_decompose


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
    cert = assemble(problem, pert.lam, pert.k, pol, base, fstar_lb=fstar_lb)
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
    total = expand_identity(cert.sigmas[0], ())
    for sigma, g in zip(cert.sigmas[1:], problem.g):
        total = total + expand_identity(sigma, ()) * g
    assert total == problem.f


def padding_degree(problem):
    """Degree of the padding factor: m, plus 2 for the second block when split."""
    return problem.m + (2 if problem.variant.is_split else 0)


def test_degree_report_matches_formulas(interval_cert):
    # the measured degrees of verification stay within the formulas
    problem, cert, _base = interval_cert
    meta = cert.meta
    vdeg = padding_degree(problem)
    cap = vdeg + meta.polya_exponent + meta.ell + meta.c9
    report = verify_certificate(problem, cert)
    assert report.product_degrees[0] == report.sigma_degrees[0] <= cap
    for i, g in enumerate(problem.g):
        absorption = vdeg + (2 * meta.k + 1) * g.block_degree("x")
        measured = report.product_degrees[i + 1]
        assert measured == report.sigma_degrees[i + 1] + g.block_degree("x")
        assert absorption <= measured <= max(absorption, cap)


def test_degree_laws_state_the_declared_degrees(interval_cert):
    problem, cert, _base = interval_cert
    meta = cert.meta
    vdeg = padding_degree(problem)
    absorption, cap = degree_laws(
        problem, meta.lam, meta.k, meta.polya_exponent, meta.ell, meta.c9
    )
    assert absorption == tuple(
        vdeg + (2 * meta.k + 1) * g.block_degree("x") for g in problem.g
    )
    assert cap == vdeg + meta.polya_exponent + meta.ell + meta.c9
    # without absorption there are no first-term degrees, and the cap is
    # the padding degree plus the remainder's components
    assert degree_laws(problem, F(0), 5, 1, 2, 3) == ((), padding_degree(problem) + 6)


def test_c9_matches_the_witnesses_used(interval_cert):
    problem, cert, base = interval_cert
    best = 0
    gdegs = [0] + [g.block_degree("x") for g in problem.g]
    for witness in base.values():
        for tau, gdeg in zip(witness, gdegs, strict=True):
            best = max([best] + [2 * q.total_degree() + gdeg for q in tau.squares])
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
    # lowering a parameter until its cap falls below a measured sigma
    problem, cert, _base = interval_cert
    meta = cert.meta
    _absorption, cap = degree_laws(
        problem, meta.lam, meta.k, meta.polya_exponent, meta.ell, meta.c9
    )
    # one below sigma_0's measured degree, which only the cap bounds
    excess = cap - verify_certificate(problem, cert).product_degrees[0] + 1
    for field in ("c9", "polya_exponent", "ell"):
        broken = replace(meta, **{field: getattr(meta, field) - excess})
        with pytest.raises(VerificationError) as err:
            verify_certificate(problem, replace(cert, meta=broken))
        assert err.value.payload["kind"] == "DEGREE_METADATA_MISMATCH"
        assert err.value.payload["sigma"] == 0


def multiplier_certificate(root: int):
    """f := sigma_0 + sigma_1 g with sigma_0 = 1 + y^2, sigma_1 = (x^root)^2
    and g = x(1 - x), stated with lambda = 1 and k = N = ell = c9 = 0: an
    absorption degree of 4 and a cap of 2."""
    sh = BlockShape(1, 1, 0)
    x = BlockedPoly.variable(sh, 0)
    y = BlockedPoly.variable(sh, sh.block_indices("y1")[0])
    one = BlockedPoly.constant(sh, 1)
    g = x * (one - x)
    square = x**root
    problem = CylinderProblem(
        shape=sh, variant=Variant.R1_ANY_M, m=2, f=one + y * y + square * square * g,
        g=(g,), frame=SIMPLEX,
    )
    sigmas = (
        SosDecomposition(sh, (F(1), F(1)), (one, y)),
        SosDecomposition(sh, (F(1),), (square,)),
    )
    meta = CertificateMeta(lam=F(1), k=0, ell=0, polya_exponent=0, c9=0, fstar_lb=F(1))
    return problem, Certificate(problem.problem_hash(), sigmas, meta)


def test_a_constraint_multiplier_past_its_degree_law_is_caught():
    # sigma_1 g = x^4 g has degree 6, against max(absorption 4, cap 2)
    problem, cert = multiplier_certificate(2)
    assert degree_laws(problem, F(1), 0, 0, 0, 0) == ((4,), 2)
    with pytest.raises(VerificationError) as err:
        verify_certificate(problem, cert)
    assert err.value.payload["kind"] == "DEGREE_METADATA_MISMATCH"
    assert err.value.payload["sigma"] == 1
    # x^2 g has degree 4, the absorption degree
    problem, cert = multiplier_certificate(1)
    assert verify_certificate(problem, cert).product_degrees == (2, 4)


def test_a_certificate_without_absorption_must_not_use_constraints(interval_cert):
    # a nonzero sigma_i under lambda = 0 fails before any degree is compared
    problem, cert, _base = interval_cert
    assert any(cert.sigmas[1].squares)
    broken = replace(cert.meta, lam=F(0), c9=cert.meta.c9 + 100)
    with pytest.raises(VerificationError) as err:
        verify_certificate(problem, replace(cert, meta=broken))
    assert err.value.payload["kind"] == "DEGREE_METADATA_MISMATCH"
    assert "must not use constraints" in str(err.value)


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
        check_representation(facet_product(problem.shape, parity), witness, problem.g)
        # each sigma is stored over primitive integer squares
        for sigma, want in zip(witness, base[parity], strict=True):
            assert sigma.weights == want.primitive().weights
            assert sigma.squares == want.primitive().squares
    assert base_cache_from_obj(obj, "other-key", problem.shape) == {}
    assert base_cache_from_obj({"bogus": 1}, "key-1", problem.shape) == {}


def test_cached_witness_integers_are_read_strictly(interval_cert):
    problem, _cert, base = interval_cert
    parity = min(base)
    key = "".join(map(str, parity))

    def exponent_as(value):
        def tamper(entry):
            term = next(s for s in entry if s["squares"])["squares"][0][0]
            term["x"][0] = value
            return entry
        return tamper

    # an entry is a list of sigmas, and an exponent a JSON int
    for tamper in (lambda e: "[]", lambda e: {"sigmas": e}, exponent_as(1.0), exponent_as(True)):
        obj = base_cache_to_obj("key-1", base)
        obj["witnesses"][key] = tamper(obj["witnesses"][key])
        back = base_cache_from_obj(obj, "key-1", problem.shape)
        assert parity not in back
        assert set(back) == set(base) - {parity}


# --- assembly against the per-square reference ---------------------------
#
# Reference: the per-square assembly that grounding each factor once
# replaced, copied with names prefixed, over the padded target's shape.
# Every product square is grounded on its own (homogenizers -> 1 by
# substitution, padding stripped), and each degree is read off the
# product.  Assembly itself measures no degree, so the reference keeps
# the per-term degree property: each absorption term's degree equals its
# formula, and each remainder term's stays within the cap.

def _reference_strip_padding(p: BlockedPoly, shape: BlockShape) -> BlockedPoly:
    """Drop the (now unused) homogenizer slots, landing in ``shape``."""
    width = shape.width
    terms: dict[tuple[int, ...], Fraction] = {}
    for expo, coeff in p.terms.items():
        assert not any(expo[width:]), f"a padding variable survived substitution: {expo}"
        terms[expo[:width]] = coeff
    return BlockedPoly(shape, terms)


class _ReferenceSigmaBuilder:
    """Accumulates weighted squares per sigma with degree tracking."""

    def __init__(self, problem: CylinderProblem, padded_shape: BlockShape):
        self.problem = problem
        self.weights: list[list[Fraction]] = [[] for _ in range(problem.s + 1)]
        self.squares: list[list[BlockedPoly]] = [[] for _ in range(problem.s + 1)]
        self.second_term = [0] * (problem.s + 1)
        one = BlockedPoly.constant(padded_shape, 1)
        self._mapping = {padded_shape.hom_index(name): one for name in padded_shape.homs}

    def ground(self, square: BlockedPoly) -> BlockedPoly:
        return _reference_strip_padding(
            substitute(square, self._mapping), self.problem.shape
        )

    def add(self, index: int, weight: Fraction, square: BlockedPoly) -> None:
        if weight == 0:
            return
        self.weights[index].append(weight)
        self.squares[index].append(self.ground(square))

    def sigmas(self) -> tuple[SosDecomposition, ...]:
        shape = self.problem.shape
        return tuple(
            SosDecomposition(shape, tuple(w), tuple(q))
            for w, q in zip(self.weights, self.squares)
        )


def _reference_sos_degree(deco: SosDecomposition) -> int:
    """Total degree of the expanded SOS (tops of squares cannot cancel)."""
    if not deco.weights:
        return 0
    return max(2 * q.total_degree() for q in deco.squares)


def reference_assemble(
    problem: CylinderProblem,
    lam: Fraction,
    k: int,
    polya: PolyaResult,
    base: Mapping[Parity, Witness],
    *,
    fstar_lb: Fraction,
) -> tuple[Certificate, tuple[int, ...], tuple[int, ...]]:
    """Stitch the pipeline stages into an exact certificate.

    ``polya.sos`` holds an SOS decomposition of each coefficient form;
    ``base`` must cover every parity that occurs, and its witnesses set
    ``c9``.  A degree that breaks its law fails an assertion.  Returns
    the certificate with the measured absorption and remainder degrees.
    """
    shape = problem.shape
    padded = problem.homogenized()[0].shape
    builder = _ReferenceSigmaBuilder(problem, padded)
    vdeg = padding_degree(problem)

    # Term one: absorption squares for each constraint.
    sphere_squares = [q.embed(padded) for q in factor_squares(problem)]
    one = BlockedPoly.constant(padded, 1)
    first_term = []
    for i, (ghat, c_i) in enumerate(normalized_constraints(problem)):
        slack = (ghat.embed(padded) - one) ** k
        for sq in sphere_squares:
            builder.add(i + 1, lam / c_i, sq * slack)
        expected = vdeg + (2 * k + 1) * problem.g[i].block_degree("x")
        measured = max(
            2 * (sq * slack).total_degree() + problem.g[i].block_degree("x")
            for sq in sphere_squares
        )
        assert measured == expected, ("absorption-term degree drifted", i + 1, measured)
        first_term.append(measured)

    # Term two: saturated remainder through the facet-product witnesses.
    for key in sorted(polya.forms):
        deco = polya.sos[key]
        witness = base[parity_vector(key)]
        root = even_square_root(key)
        sq_x = simplex_u(shape) ** root[0]
        for slot, power in zip(shape.block_indices("x"), root[1:]):
            if power:
                sq_x = sq_x * BlockedPoly.variable(shape, slot) ** power
        sq_x = sq_x.embed(padded)
        for w_form, q_form in zip(deco.weights, deco.squares):
            partial = q_form * sq_x
            for sigma_index, tau in enumerate(witness):
                gdeg = (
                    0
                    if sigma_index == 0
                    else problem.g[sigma_index - 1].block_degree("x")
                )
                for w_tau, t in zip(tau.weights, tau.squares):
                    square = partial * t.embed(padded)
                    builder.add(sigma_index, w_form * w_tau, square)
                    degree = 2 * square.total_degree() + gdeg
                    if degree > builder.second_term[sigma_index]:
                        builder.second_term[sigma_index] = degree

    # c9 from the facet witnesses (sigma_0's generator is 1).
    c9 = 0
    for witness in base.values():
        c9 = max(c9, _reference_sos_degree(witness[0]))
        for idx, tau in enumerate(witness[1:]):
            if tau.weights:
                c9 = max(c9, _reference_sos_degree(tau) + problem.g[idx].block_degree("x"))

    cap = vdeg + polya.exponent + polya.ell + c9
    for index, degree in enumerate(builder.second_term):
        assert degree <= cap, ("remainder-term degree exceeded its cap", index, degree, cap)

    meta = CertificateMeta(
        lam=lam,
        k=k,
        ell=polya.ell,
        polya_exponent=polya.exponent,
        c9=c9,
        fstar_lb=fstar_lb,
    )
    cert = Certificate(
        problem_hash=problem.problem_hash(),
        sigmas=builder.sigmas(),
        meta=meta,
    )
    return cert, tuple(first_term), tuple(builder.second_term)


_PADDED = BlockShape(1, 1, 0, ("Z",))
_padded_terms = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * _PADDED.width),
    st.fractions(max_denominator=9).filter(bool),
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(terms=_padded_terms)
@example({(1, 1, 0): F(1), (1, 1, 2): F(-1), (0, 2, 0): F(1, 2), (0, 2, 1): F(1, 2)})
def test_grounding_matches_the_reference_substitution(terms):
    """Terms that meet once Z is set to 1, summing or cancelling, which
    the pipeline's own factors never produce."""
    problem = interval_problem()
    p = BlockedPoly(_PADDED, terms)
    expected = _ReferenceSigmaBuilder(problem, _PADDED).ground(p)
    assert pipeline._ground(problem.shape, p).terms == expected.terms


ROOT = Path(__file__).resolve().parent.parent


def _assembly_inputs(name):
    """The arguments the pipeline hands ``assemble`` for one input: a
    sample problem, or a member of the bench family."""
    path = ROOT / "sample_problems" / f"{name}.json"
    if path.exists():
        obj = json.loads(path.read_text())
    else:
        members = family_module().candidates()
        [obj] = [obj for group in members for pid, _group, obj in group if pid == name]
    calls = []
    original = pipeline.assemble

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    pipeline.assemble = record
    try:
        pipeline.certify_problem(problem_from_obj(obj))
    finally:
        pipeline.assemble = original
    [call] = calls
    return call


@pytest.mark.parametrize(
    "name",
    [
        "c1_interval_line_quadratic",
        "c5_square_plane_quadratic",
        "c6_interval_split_blocks",
        "c7_box_frame_line_quadratic",
        "lambda-K16",
        "polya2-K56",
    ],
)
def test_assembly_matches_the_per_square_reference(name):
    args, kwargs = _assembly_inputs(name)
    problem = args[0]
    got = assemble(*args, **kwargs)
    expected, first_term, second_term = reference_assemble(*args, **kwargs)
    assert len(got.sigmas) == len(expected.sigmas)
    for mine, theirs in zip(got.sigmas, expected.sigmas):
        assert mine.shape == theirs.shape
        assert mine.weights == theirs.weights
        assert [q.terms for q in mine.squares] == [q.terms for q in theirs.squares]
    meta = got.meta
    absorption, cap = degree_laws(
        problem, meta.lam, meta.k, meta.polya_exponent, meta.ell, meta.c9
    )
    assert first_term == absorption
    assert max(second_term) <= cap
    assert got.meta == expected.meta
    assert got.problem_hash == expected.problem_hash


def test_verifying_a_stored_certificate_builds_no_fraction_per_square_coefficient(monkeypatch):
    obj = json.loads((ROOT / "sample_problems" / "c5_square_plane_quadratic.json").read_text())
    problem = problem_from_obj(obj)
    stored = json.loads(canonical_dumps(certificate_to_obj(
        pipeline.certify_problem(problem).certificate
    )))
    read = []  # every polynomial whose Fraction terms were built, kept alive
    terms = BlockedPoly.terms

    def counted(p):
        read.append(p)
        return terms.fget(p)

    monkeypatch.setattr(BlockedPoly, "terms", property(counted))
    cert = certificate_from_obj(stored, problem.shape)
    verify_certificate(problem, cert)
    squares = [q for deco in cert.sigmas for q in deco.squares]
    assert len(squares) == 594
    assert not {id(q) for q in squares} & {id(p) for p in read}
    assert cert.sigmas[0].squares[0].terms  # built when asked for
    assert read[-1] is cert.sigmas[0].squares[0]


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
    assert pulled.meta == cert.meta


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
