"""The snapshot tool refuses to write into an earlier snapshot."""
from helpers import snapshot_tool


def test_a_non_empty_outdir_is_refused(tmp_path, capsys):
    # a sidecar left by an earlier snapshot would turn the next run warm
    sidecar = tmp_path / "c1.cert.json.basecache.json"
    sidecar.write_text("{}")
    assert snapshot_tool().main([str(tmp_path)]) == 2
    assert "not an empty directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [sidecar]
