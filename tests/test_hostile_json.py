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

from cylcert import certified, cli
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
        assert _verify_exit(tmp_path, hostile, cert_obj, capsys) == cli.EXIT_VALIDATION


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
    assert code == cli.EXIT_EXHAUSTED
    assert summary["error"] == "SEARCH_EXHAUSTED"


@pytest.mark.parametrize("power", [3, 330])
def test_a_tiny_floor_stops_at_the_degree_cap(tmp_path, capsys, power):
    # the slack exponent k grows like 1 / floor: f / 1000 gives k = 286, a
    # target of degree 1,146 in x whose scan ran past 100 s, and f / 10^330
    # hung in forming the power
    path = _c1_scaled(tmp_path, "f", F(1, 10**power))
    code, summary, seconds = _certify_summary(tmp_path, path, capsys)
    assert code == cli.EXIT_CAP
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


# Iterables that are not JSON lists where the format requires one; each
# of these once verified.
NON_LISTS = [
    ("c2", _sigma0_weights_keyed),
    ("c1", lambda cert: cert["metadata"].update(scales="12")),
    ("c1", lambda cert: cert["metadata"].update(scales={"3": 1})),
]


@pytest.mark.parametrize(
    "sample, mutate", NON_LISTS, ids=["weights-object", "scales-string", "scales-object"]
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
