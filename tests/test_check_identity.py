"""``tools/check_identity.py`` and ``cylcert verify`` agree.

The script is a second, independent checker of the identity: it must
accept every certificate ``cylcert verify`` accepts and reject every
mutation ``cylcert verify`` rejects.  The certificates are those of c1,
c3, c7 and the deep_search member polya1-s1, certified here; the
mutations make a weight negative or zero, drop a square with its weight,
change one coefficient, double one square's coefficients beside its
weight, swap two sigmas, or check a file against another problem.  A
square written with fractions, its content moved back out of its weight,
is the same certificate and both accept it.
"""
import ast
import copy
import json
from fractions import Fraction

import pytest

from cylcert import cli
from helpers import ROOT, family_module, tool_module

SAMPLES = ROOT / "sample_problems"
STEMS = ("c1_interval_line_quadratic", "c3_interval_plane_quartic", "c7_box_frame_line_quadratic")


def _set_weight(value):
    def mutate(cert):
        cert["sigmas"][0]["weights"][0] = value(Fraction(cert["sigmas"][0]["weights"][0]))
    return mutate


def _drop_square(cert):
    sigma = cert["sigmas"][0]
    del sigma["weights"][-1], sigma["squares"][-1]


def _change_coefficient(cert):
    term = cert["sigmas"][0]["squares"][0][0]
    term["c"] = str(Fraction(term["c"]) + 1)


def _scale_square(factor, weight_factor):
    def mutate(cert):
        sigma = cert["sigmas"][0]
        for term in sigma["squares"][0]:
            term["c"] = str(Fraction(term["c"]) * factor)
        sigma["weights"][0] = str(Fraction(sigma["weights"][0]) * weight_factor)
    return mutate


def _swap_sigmas(cert):
    sigmas = cert["sigmas"]
    sigmas[0], sigmas[-1] = sigmas[-1], sigmas[0]


MUTATIONS = {
    "negative-weight": _set_weight(lambda w: str(-w)),
    "zero-weight": _set_weight(lambda w: "0"),
    "square-dropped": _drop_square,
    "coefficient-changed": _change_coefficient,
    "square-rescaled": _scale_square(2, 1),
    "sigmas-swapped": _swap_sigmas,
}


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    """``[(problem object, certificate object)]`` for c1, c3, c7 and polya1-s1."""
    root = tmp_path_factory.mktemp("agree")
    members = {pid: obj for group in family_module().candidates() for pid, _g, obj in group}
    problems = [json.loads((SAMPLES / f"{stem}.json").read_text()) for stem in STEMS]
    problems.append(members["polya1-s1"])
    out = []
    for index, problem in enumerate(problems):
        problem_path, cert_path = root / f"p{index}.json", root / f"p{index}.cert.json"
        problem_path.write_text(json.dumps(problem))
        assert cli.main(["certify", "--input", str(problem_path), "--output", str(cert_path)]) == 0
        out.append((problem, json.loads(cert_path.read_text())))
    return out


@pytest.fixture(scope="module")
def checker():
    return tool_module("check_identity")


def _both_accept(tmp_path, capsys, checker, problem, cert):
    """``(cylcert verify exits 0, the script finds no failure)``."""
    problem_path, cert_path = tmp_path / "problem.json", tmp_path / "cert.json"
    problem_path.write_text(json.dumps(problem))
    cert_path.write_text(json.dumps(cert))
    code = cli.main(["verify", "--problem", str(problem_path), "--certificate", str(cert_path)])
    capsys.readouterr()
    return code == cli.EXIT_EXACT, checker.check(problem, cert) is None


def test_both_checkers_accept_the_certificates(certified, checker, tmp_path, capsys):
    for problem, cert in certified:
        assert _both_accept(tmp_path, capsys, checker, problem, cert) == (True, True)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_both_checkers_reject_a_mutation(certified, checker, tmp_path, capsys, name):
    for problem, cert in certified:
        cert = copy.deepcopy(cert)
        MUTATIONS[name](cert)
        assert _both_accept(tmp_path, capsys, checker, problem, cert) == (False, False)


def test_both_checkers_accept_a_fractional_square_with_its_content_out_of_its_weight(
    certified, checker, tmp_path, capsys
):
    for problem, cert in certified:
        cert = copy.deepcopy(cert)
        _scale_square(Fraction(1, 3), 9)(cert)
        assert any("/" in term["c"] for term in cert["sigmas"][0]["squares"][0])
        assert _both_accept(tmp_path, capsys, checker, problem, cert) == (True, True)


def test_both_checkers_reject_a_file_checked_against_another_problem(
    certified, checker, tmp_path, capsys
):
    for index, (_problem, cert) in enumerate(certified):
        other, _cert = certified[(index + 1) % len(certified)]
        assert _both_accept(tmp_path, capsys, checker, other, cert) == (False, False)
        assert checker.check(other, cert) == "problem hash"


def test_the_script_names_the_failed_check(certified, checker):
    problem, cert = certified[0]
    for name, failure in (
        ("negative-weight", "positive weights"),
        ("zero-weight", "positive weights"),
        ("coefficient-changed", "identity"),
    ):
        mutated = copy.deepcopy(cert)
        MUTATIONS[name](mutated)
        assert checker.check(problem, mutated) == failure
    short = copy.deepcopy(cert)
    short["sigmas"].pop()
    assert checker.check(problem, short) == "one sigma per constraint, plus sigma_0"


def test_the_script_imports_only_json_fractions_and_hashlib():
    tree = ast.parse((ROOT / "tools" / "check_identity.py").read_text())
    top = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            top |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            top.add(node.module)
    assert top == {"json", "fractions", "hashlib"}
    # the only other import, in the ``__main__`` block, reads the command line
    nested = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and node not in tree.body
        for alias in node.names
    }
    assert nested == {"sys"}
