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
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylcert import certified, cli
from cylcert.poly import BlockShape, BlockedPoly
from cylcert.problem import SIMPLEX, CylinderProblem, Variant, problem_to_obj

DOCUMENTED_EXITS = {0, 10, 11, 12, 13, 14, 15, 20}

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
