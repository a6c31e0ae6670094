"""The snapshot tool refuses to write into an earlier snapshot."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "snapshot.py"


def _snapshot_tool():
    spec = importlib.util.spec_from_file_location("snapshot_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_non_empty_outdir_is_refused(tmp_path, capsys):
    # a sidecar left by an earlier snapshot would turn the next run warm
    sidecar = tmp_path / "c1.cert.json.basecache.json"
    sidecar.write_text("{}")
    assert _snapshot_tool().main([str(tmp_path)]) == 2
    assert "not an empty directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [sidecar]
