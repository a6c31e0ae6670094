"""The snapshot tool refuses to write into an earlier snapshot or an option."""
import pytest

from helpers import snapshot_tool


def test_a_non_empty_outdir_is_refused(tmp_path, capsys):
    # a sidecar left by an earlier snapshot would turn the next run warm
    sidecar = tmp_path / "c1.cert.json.basecache.json"
    sidecar.write_text("{}")
    assert snapshot_tool().main([str(tmp_path)]) == 2
    assert "not an empty directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [sidecar]


@pytest.mark.parametrize("args, code", [(["--help"], 0), (["-h"], 0), (["-o"], 2), (["--out=x"], 2)])
def test_an_option_writes_nothing(tmp_path, monkeypatch, capsys, args, code):
    # --help once became the output directory and all 13 inputs certified into it
    monkeypatch.chdir(tmp_path)
    assert snapshot_tool().main(args) == code
    out, err = capsys.readouterr()
    assert "usage: python3 tools/snapshot.py OUTDIR" in (err if code else out)
    assert list(tmp_path.iterdir()) == []
