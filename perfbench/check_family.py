"""Check the deep_search family over its whole parameter range.

    python3 perfbench/check_family.py

Certifies every member ``family.py`` can emit, group by group with the
facet-witness sidecar carried from one member to the next, and verifies
each certificate with a separate ``cylcert verify`` call.  Exits 0 when
every certify and verify exits 0 and the pass reaches λ > 1, N > 0 and
at least one facet-cache hit; otherwise prints what was missing and
exits 1.  Takes about half a minute on a 2-CPU machine.
"""
from __future__ import annotations

import shutil
import sys

import run
import tracer as tracing


def main() -> int:
    cli = run.import_cylcert()
    from cylcert import pipeline

    work = run.WORK / "check_family"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    items = run.write_members([m for group in run.family.candidates() for m in group], work)

    tracer = tracing.Tracer()
    tracer.wrap(pipeline, "base_certificates", "putinar_base.base_certificates",
                on_result=tracing.facet_cache)
    failures = run.Failures()
    result = run.Pass()
    try:
        certs = run.certify_all(cli, items, work / "certs", result, failures, tracer)
        run.verify_all(cli, items, certs, result, failures, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    problems = list(failures.notes)
    rows = result.rows.values()
    if not any(row.get("lambda") not in (None, "1") for row in rows):
        problems.append("no member needed λ > 1")
    if not any(int(row.get("N") or 0) > 0 for row in rows):
        problems.append("no member needed N > 0")
    if not tracer.counts["putinar_base.cache_hits"]:
        problems.append("no facet witness was reused from a sidecar")
    for row in rows:
        print(run.json.dumps(row, sort_keys=True))
    print(f"facet cache: {tracer.counts['putinar_base.cache_hits']} hits of "
          f"{tracer.counts['putinar_base.cache_lookups']} lookups")
    for problem in problems:
        print("FAILED:", problem)
    print("family ok" if not problems else "family check failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
