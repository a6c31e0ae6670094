"""Spans and counters recorded around the calls into each cylcert layer.

The tracer replaces public names where their callers look them up (for
example ``cylcert.pipeline.certified_cylinder_min``) with timing
wrappers, and reads work counters off the objects those calls return.
Nothing inside ``src/`` changes.  ``uninstall`` puts every original back.

Each wrapped call pushes a frame; on exit its duration is charged to the
enclosing frame, so a layer's self time is its duration minus the time
covered by its wrapped children.  Stage-level calls are also kept as
spans (name, start, end, parent, problem id) in memory.  The hot
``BlockedPoly`` kernels are only aggregated, so that a pass with
millions of polynomial operations does not hold a span for each.
"""
from __future__ import annotations

import contextlib
import functools
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.problem: str | None = None
        self.spans: list[list] = []  # [name, start, end, parent span index, problem]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, child s, span index]
        self._active: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def reset_stats(self) -> None:
        self.stats = {}
        self.counts = Counter()

    def wrap(self, owner, attr: str, name: str, *, span: bool = True, on_result=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper reporting as ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = None
            if span:
                parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.problem])
            frame = [name, perf_counter(), 0.0, index]
            self._stack.append(frame)
            self._active[name] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._active[name] -= 1
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                stat = self.stats.setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                if not self._active[name]:  # count recursion once
                    stat[1] += duration
                stat[2] += duration - frame[2]
                if index is not None:
                    self.spans[index][1:3] = [frame[1], end]
            if on_result is not None:
                on_result(self.counts, result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one benchmark-level span, such as a CLI call."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, None, self.problem])
        frame = [name, perf_counter(), 0.0, index]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][1:3] = [frame[1], perf_counter()]

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _scan_depth(counts, result, args, kwargs):
    counts["certified.scan_depth"] += result.grid_depth


def _perturb_k(counts, result, args, kwargs):
    counts["perturb.k"] += result.k


def _polya_exponent(counts, result, args, kwargs):
    counts["polya.exponent"] += result.exponent


def _squares(counts, result, args, kwargs):
    counts["sos.squares"] += len(result.squares)


def facet_cache(counts, result, args, kwargs):
    # Every facet parity is looked up in the precomputed map; a hit is a
    # witness returned as the very object that was passed in.
    precomputed = kwargs.get("precomputed") or {}
    counts["putinar_base.cache_lookups"] += len(result)
    counts["putinar_base.cache_hits"] += sum(
        1 for parity, witness in result.items() if precomputed.get(parity) is witness
    )


COUNTERS = (
    "certified.scan_depth",
    "perturb.k",
    "polya.exponent",
    "putinar_base.cache_hits",
    "putinar_base.cache_lookups",
    "sos.squares",
)


def install(tracer: Tracer) -> tuple[str, ...]:
    """Wrap every traced cylcert name; returns the span names in order."""
    from cylcert import certified, cli, perturb, pipeline, polya, sos
    from cylcert.poly import BlockedPoly

    plan = [
        (pipeline, "validate_problem", "problem.validate_problem", True, None),
        (pipeline, "check_leading_form_condition", "certified.check_leading_form_condition", True, None),
        (pipeline, "certified_cylinder_min", "certified.certified_cylinder_min", True, _scan_depth),
        (pipeline, "find_perturbation", "perturb.find_perturbation", True, _perturb_k),
        (perturb, "certified_excess_check", "perturb.certified_excess_check", True, None),
        (pipeline, "polya_saturate", "polya.polya_saturate", True, _polya_exponent),
        (polya, "coefficient_forms", "polya.coefficient_forms", True, None),
        (polya, "certified_excess_check", "polya.certified_excess_check", True, None),
        (pipeline, "base_certificates", "putinar_base.base_certificates", True, facet_cache),
        (pipeline, "sos_decompose", "sos.sos_decompose", True, _squares),
        (sos, "psd_feasibility", "sos.psd_feasibility", True, None),
        (sos, "rational_ldlt", "sos.rational_ldlt", True, None),
        (pipeline, "assemble", "certificate.assemble", True, None),
        (pipeline, "compose_with_frame", "certificate.compose_with_frame", True, None),
        (pipeline, "verify_certificate", "certificate.verify_certificate", True, None),
        (cli, "verify_certificate", "certificate.verify_certificate", True, None),
        (cli, "certificate_from_obj", "certificate.certificate_from_obj", True, None),
        (cli, "certificate_to_obj", "certificate.certificate_to_obj", True, None),
        (cli, "canonical_dumps", "serialize.canonical_dumps", True, None),
        (cli, "load_json", "serialize.load_json", True, None),
        (certified, "projected_sphere_cover", "covers.projected_sphere_cover", True, None),
        (BlockedPoly, "eval_at", "poly.BlockedPoly.eval_at", False, None),
        (BlockedPoly, "__mul__", "poly.BlockedPoly.__mul__", False, None),
        (BlockedPoly, "__add__", "poly.BlockedPoly.__add__", False, None),
    ]
    for owner, attr, name, span, hook in plan:
        tracer.wrap(owner, attr, name, span=span, on_result=hook)
    return tuple(dict.fromkeys(name for _, _, name, _, _ in plan))
