"""The benchmark's layer tracer still finds every name it wraps."""
import json
import types
from pathlib import Path

from cylcert import cli
from helpers import largest_family_member

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer() -> types.ModuleType:
    # executed from its source text, so nothing is written beside it
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_existing_names_and_counts_every_psd_search(tmp_path, capsys):
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    names = tracing.install(tracer)
    originals = list(tracer._restore)
    try:
        assert originals
        assert set(names) <= set(tracer.stats)
        for owner, attr, original in originals:
            assert _current(owner, attr) is not original
        problem = ROOT / "sample_problems" / "c1_interval_line_quadratic.json"
        code = cli.main(
            ["certify", "--input", str(problem), "--output", str(tmp_path / "c1.json")]
        )
        assert code == 0
        # facet-witness searches run through the same PSD search as forms
        assert tracer.stats["sos.psd_feasibility"][0] > tracer.stats["sos.sos_decompose"][0]
    finally:
        tracer.uninstall()
        capsys.readouterr()
    for owner, attr, original in originals:
        assert _current(owner, attr) is original


def test_coefficient_forms_are_traced_once_per_exponent_tried(tmp_path, capsys):
    # a Polya-forcing family member (N > 0): forms computed past the
    # traced name would show fewer calls than exponents tried
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    problem = tmp_path / "polya2.json"
    problem.write_text(json.dumps(largest_family_member()))
    try:
        code = cli.main(
            ["certify", "--input", str(problem), "--output", str(tmp_path / "polya2.cert.json")]
        )
    finally:
        tracer.uninstall()
        capsys.readouterr()
    assert code == 0
    exponent = tracer.counts["polya.exponent"]
    assert exponent > 0
    assert tracer.stats["polya.coefficient_forms"][0] == exponent + 1
