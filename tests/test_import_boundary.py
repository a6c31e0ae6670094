"""The checker stays on the standard library.

``cylcert verify``, ``cylcert bound`` and a ``certify`` or ``minimize``
that stops at the schema never load numpy or the search modules; each
case runs in a fresh child process and reads ``sys.modules`` after the
command.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cylcert import cli

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_problems"
SEARCH_MODULES = ("numpy", "cylcert.sos", "cylcert.certified", "cylcert.covers", "cylcert.pipeline")

# Runs ``cylcert`` with the given arguments (none: only the import), then
# prints the exit code and the search modules loaded as its last line.
CHILD = f"""
import json, sys
from cylcert import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps({{"exit": code, "loaded": [m for m in {SEARCH_MODULES!r} if m in sys.modules]}}))
"""


def run_child(script: str, *args: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    """c1 and the box-frame c7, certified in this process."""
    out = tmp_path_factory.mktemp("certs")
    paths = {}
    for stem in ("c1_interval_line_quadratic", "c7_box_frame_line_quadratic"):
        problem = SAMPLES / f"{stem}.json"
        cert = out / f"{stem}.cert.json"
        assert cli.main(["certify", "--input", str(problem), "--output", str(cert)]) == 0
        paths[stem] = (problem, cert)
    return paths


def test_importing_the_cli_loads_no_search_module():
    assert run_child(CHILD) == {"exit": 0, "loaded": []}


@pytest.mark.parametrize("stem", ["c1_interval_line_quadratic", "c7_box_frame_line_quadratic"])
def test_verify_loads_no_search_module(certificates, stem):
    problem, cert = certificates[stem]
    got = run_child(CHILD, "verify", "--problem", str(problem), "--certificate", str(cert))
    assert got == {"exit": 0, "loaded": []}


def test_bound_loads_no_search_module():
    args = ("bound", "--theorem", "1.1", "--d", "2", "--n", "1", "--fnorm", "8", "--fstar", "1")
    assert run_child(CHILD, *args) == {"exit": 0, "loaded": []}


def test_certify_of_a_schema_failure_loads_no_search_module(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"variant": "r1_any_m", "f": []}))
    got = run_child(CHILD, "certify", "--input", str(bad), "--output", str(tmp_path / "out.json"))
    assert got == {"exit": cli.EXIT_IO, "loaded": []}


def test_minimize_of_a_schema_failure_loads_no_search_module(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"variant": "r1_any_m", "f": []}))
    got = run_child(CHILD, "minimize", "--input", str(bad))
    assert got == {"exit": cli.EXIT_IO, "loaded": []}


def test_the_package_root_still_offers_the_search():
    script = """
import json
import cylcert
from cylcert import CertifyResult, certify_problem, sos_decompose
print(json.dumps([certify_problem.__module__, sos_decompose.__module__,
                  CertifyResult.__name__, hasattr(cylcert, "no_such_name")]))
"""
    assert run_child(script) == ["cylcert.pipeline", "cylcert.sos", "CertifyResult", False]
