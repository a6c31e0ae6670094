"""cylcert benchmark: certify and verify through the CLI, one problem at a time.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; ``src/`` and ``sample_problems/``
are read from there.  The benchmark is a closed loop with one caller in
one process: it calls ``cylcert.cli.main`` in-process for each problem,
and starts the next call only when the previous one has returned.
numpy's BLAS is limited to at most two threads, whatever the
environment asked for.

Workloads (the seed fixes the inputs; the program sees only the files):

* ``corpus``: the seven files of ``sample_problems/`` in seeded order.
  Every run ends with λ = 1 and N = 0 and no two files share a
  constraint system, so loop and cache optimisations must show no change.
* ``deep_search``: the seeded family of ``family.py``; it forces λ > 1
  and N > 0 and carries the facet-witness sidecar from one member of a
  group to the next, as a user certifying many targets over one S would.
* ``verify_only``: set-up certifies c5, c3 and the largest deep_search
  member once, each in a child ``python -m cylcert.cli certify`` process,
  so this process's memory peak is the verify path's; the timed phase
  only verifies those certificates.

One pass certifies every problem into a fresh directory and then
verifies every certificate with a separate ``cylcert verify`` call, in
two sweeps (``verify_only`` passes make one sweep and certify nothing).
Passes repeat until ``--seconds`` have
elapsed, at least two of them, and each metric is the median over the
passes.  A failure is a certify exit outside {0, 2}, a verify exit other
than 0, or a certificate whose sha256 changes between passes.  The
in-process memo caches of cylcert are cleared before every CLI call, so
each call pays what a fresh ``cylcert`` process pays.

Times are reported in reference seconds.  The host this was built on is
shared, and its speed drifts by ±30 % over tens of seconds: a fixed
loop's time and a certify call's time drift together.  So right before
and right after every timed step (a CLI call, a child process, a problem
generation) the benchmark times a fixed pure-Python ``Fraction`` loop,
and scales the step's wall time by ``REFERENCE_S`` over the mean of the
two loop times.  A reference second is a wall second on a host where the
loop takes ``REFERENCE_S``, about the quiet speed of a 2-CPU x86 VM.  The
loop runs no cylcert code, so a change to cylcert moves only the scaled
wall time.  Raw wall seconds and the loop times are printed on the line
before the result.

``setup_s`` is the median of ``SETUP_REPEATS`` imports of ``cylcert.cli``,
each in a fresh child process, plus the median of as many problem
generations, plus (``verify_only``) the set-up certify processes.

With ``--trace 1`` every pass runs with the wrappers of ``tracer.py``;
the per-layer metrics are medians over the passes.  The tracing overhead
is the traced run's pass time minus the untraced runs' median, which
``report.py`` computes.  Spans and the per-layer table are written to
``.perfbench_work/trace-<workload>-s<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

sys.path.insert(0, str(BENCH))
import family  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("corpus", "deep_search", "verify_only")
VERIFY_ONLY_SAMPLES = ("c5_square_plane_quadratic", "c3_interval_plane_quartic")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120
VERIFY_SWEEPS = 2  # verify sweeps after each certify sweep; a verify pass is ~1 s
REFERENCE_S = 0.04  # the reference loop's time at the reference host speed

END_TO_END_UNITS = {
    "certify_s": "s",
    "verify_s": "s",
    "cert_bytes": "bytes",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Item:
    pid: str
    path: Path
    group: str | None = None


@dataclass
class Pass:
    certify_s: float = 0.0
    verify_sweeps: list[float] = field(default_factory=list)
    wall_s: float = 0.0  # unscaled seconds inside CLI calls
    loop_s: list[float] = field(default_factory=list)  # reference loop around each call
    cert_bytes: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    rows: dict[str, dict] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def verify_s(self) -> float:
        return median(self.verify_sweeps)


class Failures:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def import_cylcert():
    """Import the CLI from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cylcert.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"cylcert was imported from {cli.__file__}, not from {src}")
    return cli


def clear_memo_caches() -> None:
    """Empty every ``functools`` cache of cylcert, as a fresh process would."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if name != "cylcert" and not name.startswith("cylcert."):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(value) not in seen:
                seen.add(id(value))
                clear()


def reference_loop_s() -> float:
    """Seconds for a fixed pure-Python Fraction loop: the host's current speed."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 6001):
        total += Fraction(1, k)
    return perf_counter() - start


def timed(step):
    """Run ``step()``: its result, its wall seconds and the reference loop's time around it."""
    before = reference_loop_s()
    start = perf_counter()
    result = step()
    wall = perf_counter() - start
    return result, wall, (before + reference_loop_s()) / 2


def reference_seconds(wall: float, loop_s: float) -> float:
    return wall * REFERENCE_S / loop_s


def call_cli(cli, argv: list[str], run: Pass, tracer=None, pid: str = "") -> tuple[int | str, str, float]:
    """One CLI call: exit code (or the exception name), stderr text, reference seconds."""
    clear_memo_caches()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()

    def step():
        with span(tracer, f"cli.{argv[0]}", pid):
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return cli.main(argv)
            except Exception as exc:  # a traceback is a failed operation, not a crash of the run
                return type(exc).__name__

    code, wall, loop_s = timed(step)
    run.wall_s += wall
    run.loop_s.append(loop_s)
    return code, err.getvalue(), reference_seconds(wall, loop_s)


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    """``python3 <args>`` with this checkout's ``src/`` as the only extra import path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary_line(stderr: str) -> dict:
    lines = stderr.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_members(members, dest: Path) -> list[Item]:
    """Write ``(id, group, problem)`` triples from ``family.py`` as files."""
    items = []
    for pid, group, obj in members:
        path = dest / f"{pid}.json"
        path.write_text(json.dumps(obj, indent=1) + "\n")
        items.append(Item(pid, path, group))
    return items


def write_inputs(workload: str, seed: int, dest: Path) -> list[Item]:
    """Generate the workload's problem files under ``dest``."""
    dest.mkdir(parents=True)
    if workload == "deep_search":
        return write_members(family.deep_search(seed), dest)
    items: list[Item] = []
    samples = sorted((ROOT / "sample_problems").glob("*.json"))
    if workload == "verify_only":
        samples = [s for s in samples if s.stem in VERIFY_ONLY_SAMPLES]
        items = write_members([("polya2-K56", None, family.largest_member())], dest)
    for sample in samples:
        path = dest / sample.name
        shutil.copyfile(sample, path)
        items.append(Item(sample.stem, path))
    if len(items) != {"corpus": 7, "verify_only": 3}[workload]:
        raise SystemExit(f"expected problem files are missing from {ROOT / 'sample_problems'}")
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def certify_all(cli, items, outdir: Path, run: Pass, failures: Failures, tracer) -> dict[str, Path]:
    outdir.mkdir(parents=True)
    certs: dict[str, Path] = {}
    last_in_group: dict[str, Path] = {}
    for item in items:
        out = outdir / f"{item.pid}.cert.json"
        previous = last_in_group.get(item.group) if item.group else None
        if previous is not None and Path(f"{previous}.basecache.json").exists():
            shutil.copyfile(f"{previous}.basecache.json", f"{out}.basecache.json")
        argv = ["certify", "--input", str(item.path), "--output", str(out)]
        code, stderr, seconds = call_cli(cli, argv, run, tracer, item.pid)
        run.certify_s += seconds
        ok = code in (0, 2) and out.exists()
        failures.record(ok, f"certify {item.pid}: exit {code}")
        info = summary_line(stderr)
        run.rows[item.pid] = {
            "id": item.pid, "certify_exit": code, "certify_s": seconds,
            "lambda": info.get("lambda"), "k": info.get("k"), "N": info.get("N"),
        }
        if ok:
            certs[item.pid] = out
            if item.group:
                last_in_group[item.group] = out
    return certs


def certify_stored(items, outdir: Path, run: Pass, failures: Failures) -> dict[str, Path]:
    """Certify each problem in a child ``cylcert certify`` process, as set-up for verify_only."""
    outdir.mkdir(parents=True)
    certs: dict[str, Path] = {}
    for item in items:
        out = outdir / f"{item.pid}.cert.json"
        argv = ["-m", "cylcert.cli", "certify", "--input", str(item.path), "--output", str(out)]
        proc, wall, loop_s = timed(lambda: run_child(argv))
        run.certify_s += reference_seconds(wall, loop_s)
        run.wall_s += wall
        run.loop_s.append(loop_s)
        ok = proc.returncode in (0, 2) and out.exists()
        failures.record(ok, f"certify {item.pid}: exit {proc.returncode}")
        if ok:
            certs[item.pid] = out
    return certs


def import_s_in_child() -> tuple[float, float]:
    """Wall and reference seconds of ``import cylcert.cli`` in a fresh process."""
    proc, wall, loop_s = timed(lambda: run_child(["-c", "import cylcert.cli"]))
    if proc.returncode != 0:
        raise SystemExit(f"importing cylcert in a child process failed:\n{proc.stderr}")
    return wall, reference_seconds(wall, loop_s)


def verify_all(cli, items, certs: dict[str, Path], run: Pass, failures: Failures, tracer) -> None:
    """One verify sweep over every certificate."""
    run.verify_sweeps.append(0.0)
    run.cert_bytes = 0
    for item in items:
        cert = certs.get(item.pid)
        if cert is None:
            continue
        argv = ["verify", "--problem", str(item.path), "--certificate", str(cert)]
        code, _, seconds = call_cli(cli, argv, run, tracer, item.pid)
        run.verify_sweeps[-1] += seconds
        failures.record(code == 0, f"verify {item.pid}: exit {code}")
        size = cert.stat().st_size
        run.cert_bytes += size
        run.digests[item.pid] = sha256_file(cert)
        row = run.rows.setdefault(item.pid, {"id": item.pid})
        row.update({"verify_exit": code, "verify_s": seconds, "bytes": size})


@contextlib.contextmanager
def span(tracer, name: str, pid: str):
    if tracer is None:
        yield
        return
    tracer.problem = pid
    with tracer.span(name):
        yield


def check_digests(passes: list[Pass], failures: Failures) -> None:
    """Every certificate must be byte-identical to the first pass's."""
    first = passes[0].digests
    for later in passes[1:]:
        for pid, digest in later.digests.items():
            if pid in first:
                failures.record(digest == first[pid], f"sha256 of {pid} changed between passes")


def layer_metrics(tracer, names) -> dict[str, float]:
    out: dict[str, float] = {}
    for name in names:
        calls, inclusive, _ = tracer.stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = inclusive
    for name in tracing.COUNTERS:
        out[name] = tracer.counts.get(name, 0)
    return out


def median(values) -> float:
    return statistics.median(list(values))


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS reports, when it can be asked."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cylcert()
    run_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return measure(cli, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(cli, args, run_dir: Path) -> int:
    failures = Failures()

    imports = [import_s_in_child() for _ in range(SETUP_REPEATS)]
    generate_s = []
    for repeat in range(SETUP_REPEATS):
        items, wall, loop_s = timed(
            lambda: write_inputs(args.workload, args.seed, run_dir / f"inputs{repeat}"))
        generate_s.append(reference_seconds(wall, loop_s))
    setup = Pass()
    stored: dict[str, Path] = {}
    if args.workload == "verify_only":
        stored = certify_stored(items, run_dir / "stored", setup, failures)
    setup_s = median(s for _, s in imports) + median(generate_s) + setup.certify_s

    tracer = None
    names: tuple[str, ...] = ()
    if args.trace:
        tracer = tracing.Tracer()
        names = tracing.install(tracer)
    passes: list[Pass] = []
    timed_start = perf_counter()
    while len(passes) < 2 or perf_counter() - timed_start < args.seconds:
        if tracer is not None:
            tracer.reset_stats()
        run = Pass()
        if args.workload == "verify_only":
            certs = stored
        else:
            certs = certify_all(cli, items, run_dir / f"pass{len(passes)}", run, failures, tracer)
        for _ in range(1 if args.workload == "verify_only" else VERIFY_SWEEPS):
            verify_all(cli, items, certs, run, failures, tracer)
        if tracer is not None:
            run.layers = layer_metrics(tracer, names)
        passes.append(run)
    if tracer is not None:
        tracer.uninstall()
    check_digests(passes, failures)

    correct = failures.failed == 0
    if args.workload == "deep_search":
        # The family exists to reach these paths; a pass that misses them
        # no longer measures what the workload is for.
        rows = passes[0].rows.values()
        correct &= any(int(row.get("N") or 0) > 0 for row in rows)
        correct &= any(row.get("lambda") not in (None, "1") for row in rows)

    for row in passes[0].rows.values():
        print(json.dumps(row, sort_keys=True))
    for note in failures.notes:
        print("FAILED:", note)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        metrics = {
            key: {"value": median(p.layers[key] for p in passes), "unit": unit_of(key)}
            for key in passes[0].layers
        }
        if args.workload == "deep_search":
            correct &= metrics["putinar_base.cache_hits"]["value"] > 0
        write_trace(args, tracer, names, passes)
    else:
        values = {
            "certify_s": setup.certify_s if args.workload == "verify_only"
            else median(p.certify_s for p in passes),
            "verify_s": median(p.verify_s for p in passes),
            "cert_bytes": median(p.cert_bytes for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "pass_certify_s": [p.certify_s for p in passes],
        "pass_verify_s": [p.verify_s for p in passes],
        "pass_wall_s": [p.wall_s for p in passes],
        "reference_loop_s": median(loop for p in [setup, *passes] for loop in p.loop_s),
        "setup": {"import_wall_s": median(wall for wall, _ in imports),
                  "import_s": median(s for _, s in imports), "generate_s": median(generate_s),
                  "certify_s": setup.certify_s, "certify_wall_s": setup.wall_s},
        "machine": machine_info(),
    }, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(key: str) -> str:
    if key.endswith(".s") or key.endswith("_s"):
        return "s"
    return "count"


def machine_info() -> dict:
    import platform

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
    }


def write_trace(args, tracer, names, passes) -> None:
    table = {
        name: {"calls": calls, "inclusive_s": inclusive, "self_s": self_s}
        for name, (calls, inclusive, self_s) in tracer.stats.items()
    }
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{args.workload}-s{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "last_pass_layers": table,
        "layers": {k: median(p.layers[k] for p in passes) for k in passes[0].layers},
        "spans": [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "problem": s[4]}
            for s in tracer.spans
        ],
    }) + "\n")


if __name__ == "__main__":
    sys.exit(main())
