"""Mutated problem and certificate files end in a documented exit code.

Each example damages the JSON of a small problem or of its certificate
(a dropped key or list item, a value of another type, a bool, negative or
huge number where an exponent belongs, a non-string coefficient) and
runs ``cylcert verify``, ``certify`` or ``minimize`` on it.  Whatever the
damage, the CLI must return 0 or one of the failure codes 10-15 and 20,
never raise.
"""
import copy
import json
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylcert import certified, cli, errors
from cylcert.poly import BlockShape, BlockedPoly
from cylcert.problem import DEGREE_CAP, SIMPLEX, CylinderProblem, Variant, problem_to_obj

DOCUMENTED_EXITS = {0, 10, 11, 12, 13, 14, 15, 20}
SAMPLES = Path(__file__).resolve().parent.parent / "sample_problems"

_DROP = object()
REPLACEMENTS = (
    _DROP,
    None,
    True,
    False,
    -1,
    0,
    2**70,
    -(2**70),
    1.5,
    3,
    "abc",
    "1/0",
    "",
    [],
    {},
    [True],
    [-1],
    [2**70],
    {"c": 1},
)


def _paths(obj, prefix=()):
    """Every position in a JSON document, parents before children."""
    out = [prefix] if prefix else []
    if isinstance(obj, dict):
        for key in sorted(obj):
            out += _paths(obj[key], prefix + (key,))
    elif isinstance(obj, list):
        for index, item in enumerate(obj):
            out += _paths(item, prefix + (index,))
    return out


def _mutate(obj, edits):
    """Apply (path, replacement) edits; an edit whose path is gone is skipped."""
    obj = copy.deepcopy(obj)
    for path, value in edits:
        parent = obj
        try:
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue
        if not isinstance(parent, (dict, list)):
            continue
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return obj


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A small problem and its certificate, as JSON objects."""
    root = tmp_path_factory.mktemp("hostile")
    sh = BlockShape(1, 1, 0)
    x = BlockedPoly.variable(sh, 0)
    y = BlockedPoly.variable(sh, 1)
    one = BlockedPoly.constant(sh, 1)
    problem = CylinderProblem(
        shape=sh,
        variant=Variant.R1_ANY_M,
        m=2,
        f=one.scale(8) + x.scale(8) + (y * y).scale(8),
        g=((x - one.scale(F(1, 4))) * (one.scale(F(1, 2)) - x),),
        frame=SIMPLEX,
    )
    problem_path = root / "problem.json"
    cert_path = root / "cert.json"
    problem_path.write_text(json.dumps(problem_to_obj(problem)))
    assert cli.main(["certify", "--input", str(problem_path), "--output", str(cert_path)]) == 0
    return json.loads(problem_path.read_text()), json.loads(cert_path.read_text())


def _edits(paths):
    edit = st.tuples(st.sampled_from(paths), st.sampled_from(REPLACEMENTS))
    return st.lists(edit, min_size=1, max_size=2)


def _verify_exit(tmp_path, problem_obj, cert_obj, capsys):
    problem_path = tmp_path / "problem.json"
    cert_path = tmp_path / "cert.json"
    problem_path.write_text(json.dumps(problem_obj))
    cert_path.write_text(json.dumps(cert_obj))
    code = cli.main(["verify", "--problem", str(problem_path), "--certificate", str(cert_path)])
    capsys.readouterr()
    return code


def test_mutated_problem_files_end_in_a_documented_exit(documents, tmp_path, capsys):
    problem_obj, cert_obj = documents

    @settings(max_examples=25)
    @given(_edits(_paths(problem_obj)))
    def run(edits):
        code = _verify_exit(tmp_path, _mutate(problem_obj, edits), cert_obj, capsys)
        assert code in DOCUMENTED_EXITS

    run()


def test_mutated_certificate_files_end_in_a_documented_exit(documents, tmp_path, capsys):
    problem_obj, cert_obj = documents

    @settings(max_examples=25)
    @given(_edits(_paths(cert_obj)))
    def run(edits):
        code = _verify_exit(tmp_path, problem_obj, _mutate(cert_obj, edits), capsys)
        assert code in DOCUMENTED_EXITS

    run()


@pytest.mark.parametrize("command", ["certify", "minimize"])
def test_mutated_problem_files_end_in_a_documented_exit_when_solved(
    documents, tmp_path, capsys, monkeypatch, command
):
    # the unmutated problem still certifies at depth 6, and a shallow scan
    # ends every example well within a second
    monkeypatch.setattr(certified, "DEPTH_CAP", 6)
    problem_obj, _cert_obj = documents
    problem_path = tmp_path / "problem.json"
    argv = [command, "--input", str(problem_path)]
    if command == "certify":
        argv += ["--output", str(tmp_path / "cert.json")]

    @settings(max_examples=25)
    @given(_edits(_paths(problem_obj)))
    def run(edits):
        problem_path.write_text(json.dumps(_mutate(problem_obj, edits)))
        code = cli.main(argv)
        capsys.readouterr()
        assert code in DOCUMENTED_EXITS

    run()


def test_a_huge_variable_count_is_refused(documents, tmp_path, capsys):
    problem_obj, cert_obj = documents
    for field in ("n", "r"):
        hostile = _mutate(problem_obj, [((field,), 2**70)])
        assert _verify_exit(tmp_path, hostile, cert_obj, capsys) == errors.ValidationError.exit_code


def _c1_scaled(tmp_path, key, factor):
    """Sample c1 with every coefficient of f, or of its constraint, times factor."""
    obj = json.loads((SAMPLES / "c1_interval_line_quadratic.json").read_text())
    for term in obj["f"] if key == "f" else obj["g"][0]:
        term["c"] = str(F(term["c"]) * factor)
    path = tmp_path / f"c1-{key}.json"
    path.write_text(json.dumps(obj))
    return path


def _certify_summary(tmp_path, path, capsys):
    out = tmp_path / "cert.json"
    started = time.monotonic()
    code = cli.main(["certify", "--input", str(path), "--output", str(out)])
    seconds = time.monotonic() - started
    summary = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert not out.exists()
    return code, summary, seconds


@pytest.mark.parametrize("power", [160, 200, 300])
def test_huge_constraint_coefficients_fail_the_search(tmp_path, capsys, power):
    # under the 2^1000 cap, but A W^-1 A^T of the facet systems overflows a
    # float; this used to end in a LinAlgError traceback from pinv
    path = _c1_scaled(tmp_path, "g", F(10) ** power)
    code, summary, _ = _certify_summary(tmp_path, path, capsys)
    assert code == errors.SearchExhaustedError.exit_code
    assert summary["error"] == "SEARCH_EXHAUSTED"


@pytest.mark.parametrize("power", [3, 330])
def test_a_tiny_floor_stops_at_the_degree_cap(tmp_path, capsys, power):
    # the slack exponent k grows like 1 / floor: f / 1000 gives k = 286, a
    # target of degree 1,146 in x whose scan ran past 100 s, and f / 10^330
    # hung in forming the power
    path = _c1_scaled(tmp_path, "f", F(1, 10**power))
    code, summary, seconds = _certify_summary(tmp_path, path, capsys)
    assert code == errors.CapExceededError.exit_code
    assert summary["error"] == "CAP_EXCEEDED"
    assert summary["payload"]["lambda"] == "1"
    assert summary["payload"]["degree"] == 2 * (2 * summary["payload"]["k"] + 1) > DEGREE_CAP
    assert seconds < 10


@pytest.fixture(scope="module")
def sample_certificates(tmp_path_factory):
    """c1 and c2 with the certificates `certify` writes for them."""
    root = tmp_path_factory.mktemp("samples")
    out = {}
    for stem in ("c1_interval_line_quadratic", "c2_interval_line_quartic"):
        path = SAMPLES / f"{stem}.json"
        cert = root / f"{stem}.cert.json"
        assert cli.main(["certify", "--input", str(path), "--output", str(cert)]) == 0
        out[stem[:2]] = (json.loads(path.read_text()), json.loads(cert.read_text()))
    return out


def _sigma0_weights_keyed(cert):
    weights = cert["sigmas"][0]["weights"]
    cert["sigmas"][0]["weights"] = {w: 1 for w in weights}


def _sigma0_squares_keyed(cert):
    squares = cert["sigmas"][0]["squares"]
    cert["sigmas"][0]["squares"] = {str(i): q for i, q in enumerate(squares)}


# Iterables that are not JSON lists where the format requires one; the
# keyed weights once verified.
NON_LISTS = [
    ("c2", _sigma0_weights_keyed),
    ("c1", _sigma0_squares_keyed),
    ("c1", lambda cert: cert.update(sigmas="12")),
]


@pytest.mark.parametrize(
    "sample, mutate", NON_LISTS, ids=["weights-object", "squares-object", "sigmas-string"]
)
def test_a_non_list_where_a_list_belongs_is_a_schema_error(
    sample_certificates, tmp_path, capsys, sample, mutate
):
    problem_obj, cert_obj = sample_certificates[sample]
    cert_obj = copy.deepcopy(cert_obj)
    mutate(cert_obj)
    assert _verify_exit(tmp_path, problem_obj, cert_obj, capsys) == cli.EXIT_IO


@pytest.mark.parametrize("field", ["n", "m", "r"])
def test_a_boolean_size_is_a_schema_error(tmp_path, capsys, field):
    # true is an int to isinstance: c1 with "n" or "r" true once certified
    # and verified, and "n": true under another problem hash than c1
    obj = json.loads((SAMPLES / "c1_interval_line_quadratic.json").read_text())
    obj[field] = True
    path = tmp_path / "c1-bool.json"
    path.write_text(json.dumps(obj))
    code, summary, _ = _certify_summary(tmp_path, path, capsys)
    assert code == cli.EXIT_IO
    assert summary["error"] == "SCHEMA"


def test_a_rational_past_the_digit_limit_is_refused_at_once(documents, tmp_path, capsys):
    # CPython's int() is quadratic in the digit count; its default limit of
    # 4,300 digits stays in force while files are read, so a 200,000-digit
    # coefficient or weight is refused before any conversion
    problem_obj, cert_obj = documents
    digits = "9" * 200_000
    hostile_problem = _mutate(problem_obj, [(("f", 0, "c"), digits)])
    hostile_cert = _mutate(cert_obj, [(("sigmas", 0, "weights", 0), digits)])
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(hostile_problem))
    literal_path = tmp_path / "literal.json"
    literal_path.write_text(json.dumps(problem_obj).replace('"n": 1', '"n": ' + digits, 1))
    for path in (problem_path, literal_path):
        code, summary, seconds = _certify_summary(tmp_path, path, capsys)
        assert (code, summary["error"]) == (cli.EXIT_IO, "SCHEMA")
        assert seconds <= 1
    for problem, cert in ((hostile_problem, cert_obj), (problem_obj, hostile_cert)):
        started = time.monotonic()
        assert _verify_exit(tmp_path, problem, cert, capsys) == cli.EXIT_IO
        assert time.monotonic() - started <= 1


def test_a_4301_digit_denominator_ends_in_a_documented_exit(documents, tmp_path, capsys):
    # "1e-4300" passes the exponent cap, and its denominator has 4,301
    # digits: hashing the problem formats it past CPython's default
    # int-to-str limit, and the certificate would carry it past what
    # verify reads, so certify stops at the cap and writes nothing
    problem_obj, cert_obj = documents
    tiny = copy.deepcopy(problem_obj)
    tiny["f"].append({"c": "1e-4300", "x": [1], "y1": [2]})
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny))
    code, summary, seconds = _certify_summary(tmp_path, path, capsys)
    assert (code, summary["error"], summary["payload"]) == (
        errors.CapExceededError.exit_code, "CAP_EXCEEDED", {"cap": 4300}
    )
    assert seconds <= 30
    # the old certificate was issued for the problem without the term
    assert _verify_exit(tmp_path, tiny, cert_obj, capsys) == errors.VerificationError.exit_code


def test_a_residual_past_the_int_to_str_limit_is_reported(documents, tmp_path, capsys):
    # 4,000-digit weights and coefficients are read; the residual they
    # leave has about 12,000 digits and is reported in full
    problem_obj, cert_obj = documents
    big = "9" * 4000
    hostile = _mutate(cert_obj, [
        (("sigmas", 0, "weights", 0), big), (("sigmas", 0, "squares", 0, 0, "c"), big),
    ])
    problem_path = tmp_path / "problem.json"
    cert_path = tmp_path / "cert.json"
    problem_path.write_text(json.dumps(problem_obj))
    cert_path.write_text(json.dumps(hostile))
    code = cli.main(["verify", "--problem", str(problem_path), "--certificate", str(cert_path)])
    payload = json.loads(capsys.readouterr().err.splitlines()[-1])["payload"]
    assert (code, payload["kind"]) == (errors.VerificationError.exit_code, "IDENTITY_FAIL")
    numerator = payload["residual"].partition("/")[0]
    assert len(numerator) > 11_000 and numerator.isdigit()


def test_a_4000_digit_exponent_in_a_square_fails_verification(
    sample_certificates, tmp_path, capsys
):
    # the identity check packs each monomial into one int whose fields are
    # as wide as the largest exponent needs: here about 13,300 bits a slot
    problem_obj, cert_obj = sample_certificates["c1"]
    hostile = copy.deepcopy(cert_obj)
    hostile["sigmas"][0]["squares"][0][0]["x"] = [10**3999]
    problem_path = tmp_path / "problem.json"
    cert_path = tmp_path / "cert.json"
    problem_path.write_text(json.dumps(problem_obj))
    cert_path.write_text(json.dumps(hostile))
    started = time.monotonic()
    code = cli.main(["verify", "--problem", str(problem_path), "--certificate", str(cert_path)])
    seconds = time.monotonic() - started
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert (code, json.loads(err.splitlines()[-1])["payload"]["kind"]) == (
        errors.VerificationError.exit_code, "IDENTITY_FAIL"
    )
    assert seconds < 1


# 200,000 nested arrays and 5,000 nested objects: the JSON reader recurses
# once per level, and both once ended in a RecursionError traceback
DEEP = {"arrays": "[" * 200_000, "objects": '{"a":' * 5_000}


@pytest.mark.parametrize("kind", sorted(DEEP))
def test_deeply_nested_json_is_a_schema_error(documents, tmp_path, capsys, kind):
    problem_obj, cert_obj = documents
    deep, problem, cert = tmp_path / "deep.json", tmp_path / "problem.json", tmp_path / "cert.json"
    deep.write_text(DEEP[kind])
    problem.write_text(json.dumps(problem_obj))
    cert.write_text(json.dumps(cert_obj))
    for argv in (
        ["certify", "--input", str(deep), "--output", str(tmp_path / "out.json")],
        ["verify", "--problem", str(deep), "--certificate", str(cert)],
        ["verify", "--problem", str(problem), "--certificate", str(deep)],
    ):
        assert cli.main(argv) == cli.EXIT_IO
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "SCHEMA"


@pytest.mark.parametrize("kind", sorted(DEEP))
def test_a_deeply_nested_sidecar_is_recomputed(documents, tmp_path, kind):
    problem_obj, _cert_obj = documents
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(problem_obj))
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    warm_sidecar = tmp_path / "warm.json.basecache.json"
    warm_sidecar.write_text(DEEP[kind])
    for out in (cold, warm):
        assert cli.main(["certify", "--input", str(problem), "--output", str(out)]) == 0
    assert warm.read_bytes() == cold.read_bytes()
    assert warm_sidecar.read_bytes() == (tmp_path / "cold.json.basecache.json").read_bytes()
