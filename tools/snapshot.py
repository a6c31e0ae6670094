"""Certify every sample problem and bench family member into one directory.

    python3 tools/snapshot.py OUTDIR

It imports ``cylcert`` from the ``src/`` of the checkout it lives in.
For each file of ``sample_problems/`` and each member of
``perfbench/family.candidates()`` it runs ``cylcert.cli.main certify
--diagnostics`` in-process, writing ``<id>.cert.json``, its
``.basecache.json`` sidecar and ``<id>.diag.json`` into OUTDIR, and the
problem files into ``OUTDIR/inputs``.  It also writes ``psd.sha256``: the
sha256 over every array ``cylcert.sos.psd_feasibility`` returns in the
run, in call order, with ``None`` hashed as the bytes ``None``;
``psd.steps``: one line ``<id> <projections>`` per call of
``cylcert.sos.psd_feasibility``, in the same order, counting the calls
of ``GramSystem.project_psd`` it made, one per step of the alternating
projections; and ``sigmas.sha256``: one line ``<id> <sha256>`` per
certificate written, in certification order, hashing its ``sigmas`` list
with ``cylcert.serialize.sha256_of_obj``; and ``expanded.sha256``: one
line ``<id> <sha256>`` per certificate, in the same order, hashing the
list of each sigma's expanded ``sum w * q**2`` as a term list, so two
certificates that write the same sigmas differently hash the same
there.  Within one family group the
sidecar of the previous member is copied to the next member before it is
certified, as the benchmark does.  ``perfbench/family.py`` is executed
from its source text, so nothing is written beside it.

Two checkouts' snapshots compare with ``diff -r``; a refactor that keeps
behaviour leaves the certificates and sidecars byte-identical, and one
that keeps the float search's bits leaves ``psd.sha256`` unchanged.  When
the two checkouts write different metadata beside the same squares,
``sigmas.sha256`` still compares with ``diff``; when they write different
encodings (files became compact JSON after they had been written
two-space-indented), compare each pair of files by parsed content,
``json.loads(a) == json.loads(b)``, instead.

OUTDIR must be new or empty (exit 2 otherwise): a second snapshot into
the same directory would reuse the first one's sidecars and take the
warm path.  ``-h`` or ``--help`` prints the usage; any other argument
that starts with ``-`` is refused (exit 2) before anything is written,
so a directory of such a name is given as ``./-name``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USAGE = "usage: python3 tools/snapshot.py OUTDIR"


def _family() -> types.ModuleType:
    path = ROOT / "perfbench" / "family.py"
    module = types.ModuleType("perfbench_family")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _inputs(workdir: Path) -> list[tuple[str, str | None, Path]]:
    """``(id, group, problem file)`` in certification order."""
    out: list[tuple[str, str | None, Path]] = [
        (p.stem, None, p) for p in sorted((ROOT / "sample_problems").glob("*.json"))
    ]
    for group in _family().candidates():
        for pid, name, obj in group:
            path = workdir / f"{pid}.json"
            path.write_text(json.dumps(obj, indent=1) + "\n")
            out.append((pid, name, path))
    return out


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args in (["-h"], ["--help"]):
        print(USAGE)
        return 0
    if len(args) != 1 or args[0].startswith("-"):
        print(USAGE, file=sys.stderr)
        return 2
    outdir = Path(args[0])
    if outdir.exists() and (not outdir.is_dir() or any(outdir.iterdir())):
        print(f"snapshot: {outdir} exists and is not an empty directory", file=sys.stderr)
        return 2
    outdir.mkdir(parents=True, exist_ok=True)
    inputs_dir = outdir / "inputs"
    inputs_dir.mkdir(exist_ok=True)

    sys.path.insert(0, str(ROOT / "src"))
    from cylcert import cli, sos
    from cylcert.certificate import certificate_from_obj
    from cylcert.poly import expand_identity
    from cylcert.problem import problem_from_obj
    from cylcert.serialize import poly_to_obj, sha256_of_obj

    digest = hashlib.sha256()
    search = sos.psd_feasibility
    project = sos.GramSystem.project_psd
    steps = [0]
    step_lines = []

    def counted_project(self, x, tau):
        steps[0] += 1
        return project(self, x, tau)

    def hashed_search(system, b):
        steps[0] = 0
        x = search(system, b)
        digest.update(b"None" if x is None else x.tobytes())
        step_lines.append(f"{pid} {steps[0]}\n")
        return x

    worst = 0
    previous: dict[str, Path] = {}
    sigma_lines = []
    expanded_lines = []
    sos.psd_feasibility = hashed_search
    sos.GramSystem.project_psd = counted_project
    try:
        for pid, group, path in _inputs(inputs_dir):
            cert = outdir / f"{pid}.cert.json"
            before = previous.get(group) if group else None
            if before is not None and Path(f"{before}.basecache.json").exists():
                shutil.copyfile(f"{before}.basecache.json", f"{cert}.basecache.json")
            command = [
                "certify", "--input", str(path), "--output", str(cert),
                "--diagnostics", str(outdir / f"{pid}.diag.json"),
            ]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(command)
            print(f"{pid}: exit {code}")
            worst = max(worst, code)
            if cert.exists():
                obj = json.loads(cert.read_text())
                sigma_lines.append(f"{pid} {sha256_of_obj(obj['sigmas'])}\n")
                shape = problem_from_obj(json.loads(path.read_text())).shape
                expanded = [
                    poly_to_obj(expand_identity(sigma, ()))
                    for sigma in certificate_from_obj(obj, shape).sigmas
                ]
                expanded_lines.append(f"{pid} {sha256_of_obj(expanded)}\n")
            if group:
                previous[group] = cert
    finally:
        sos.psd_feasibility = search
        sos.GramSystem.project_psd = project
    (outdir / "psd.sha256").write_text(digest.hexdigest() + "\n")
    (outdir / "psd.steps").write_text("".join(step_lines))
    (outdir / "sigmas.sha256").write_text("".join(sigma_lines))
    (outdir / "expanded.sha256").write_text("".join(expanded_lines))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
