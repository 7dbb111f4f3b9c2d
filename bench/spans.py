"""Span recording around the public functions of ``roughconcepts``.

A :class:`Tracer` replaces every module attribute that refers to one of
the functions in :data:`SPANS` with a wrapper that records a span (name,
start, end, parent span, operation).  Modules resolve these names when
they call them, so calls from one module of the package into another are
recorded as well as the benchmark's own calls.  Nothing in the package
is edited, and :meth:`Tracer.uninstall` puts the original functions back.

Spans stay in memory until the run ends; :meth:`Tracer.write` saves them
and :meth:`Tracer.layer_metrics` derives the per-layer figures.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

# defining module -> public function -> span name
SPANS = {
    "formats": {
        "parse_context": "formats.parse",
        "parse_partition": "formats.parse",
        "render_context": "formats.render",
        "export_dot": "formats.render",
    },
    "context": {"derive_extent": "context.derive", "derive_intent": "context.derive"},
    "approx": {
        "upper_context": "approx.context",
        "lower_context": "approx.context",
        "extent_upper_free": "approx.extent",
        "extent_upper_strict": "approx.extent",
        "extent_lower": "approx.extent",
        "possibly_has": "approx.extent",
        "certainly_has": "approx.extent",
    },
    "lattice": {
        "enumerate_concepts": "lattice.enumerate",
        "lattice_meet": "lattice.meet_join",
        "lattice_join": "lattice.meet_join",
    },
    "concepts": {
        "approximation_maps": "concepts.maps",
        "indiscernibility_kernels": "concepts.classes",
        "rough_concept_classes": "concepts.classes",
        "concept_upper_approx": "concepts.query",
        "concept_lower_approx": "concepts.query",
        "concept_order": "concepts.query",
        "lower_join": "concepts.query",
        "upper_meet": "concepts.query",
    },
    "rules": {
        "implication_holds": "rules.eval",
        "rough_measure": "rules.eval",
        "certain_rule": "rules.eval",
        "possible_rule": "rules.eval",
    },
    "report": {"build_report": "report.build"},
    "cli": {"run_cli": "cli.run"},
}

KINDS = ("base", "upper", "lower")

# Per-layer metric -> unit, in the order they are reported.
LAYER_UNITS = {
    "formats.parse_s": "s",
    "formats.render_s": "s",
    "context.derive_s": "s",
    "context.derive_calls": "count",
    "approx.context_s": "s",
    "approx.extent_s": "s",
    "lattice.enumerate_s.base": "s",
    "lattice.enumerate_s.upper": "s",
    "lattice.enumerate_s.lower": "s",
    "lattice.covers_s": "s",
    "lattice.concepts.base": "count",
    "lattice.concepts.upper": "count",
    "lattice.concepts.lower": "count",
    "lattice.cover_pairs": "count",
    "lattice.meet_join_s": "s",
    "concepts.image_s": "s",
    "concepts.classes_s": "s",
    "concepts.query_s": "s",
    "rules.eval_s": "s",
    "rules.calls": "count",
    "report.build_self_s": "s",
    "cli.import_s": "s",
    "cli.run_self_s": "s",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_pct": "%",
}

# Span: [name, start_ns, end_ns, parent index, operation, outermost of its name]
NAME, START, END, PARENT, OP, OUTER = range(6)


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


class Tracer:
    """Records spans while installed; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1  # operation being run; -1 during set-up
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._kind: dict[int, str] = {}  # id(approximation context) -> "upper" | "lower"
        self._covers_unread: weakref.WeakSet = weakref.WeakSet()
        self._lattice_classes: dict[type, type] = {}
        self.concept_counts: dict[str, list[int]] = defaultdict(list)
        self.cover_counts: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "roughconcepts"]
        for module_name, functions in SPANS.items():
            defining = sys.modules[f"roughconcepts.{module_name}"]
            for func_name, span_name in functions.items():
                original = getattr(defining, func_name)
                wrapper = self._wrapper(original, span_name, func_name)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, self._depth[name] == 0])
        self._stack.append(index)
        self._depth[name] += 1
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[self.spans[index][NAME]] -= 1

    def _wrapper(self, original, span_name: str, func_name: str):
        if func_name == "enumerate_concepts":
            return self._enumerate_wrapper(original)
        kind = {"upper_context": "upper", "lower_context": "lower"}.get(func_name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if kind is not None:
                self._tag_context(result, kind)
            return result

        return wrapper

    def _tag_context(self, ctx, kind: str) -> None:
        key = id(ctx)
        self._kind[key] = kind
        weakref.finalize(ctx, self._kind.pop, key, None)

    def _enumerate_wrapper(self, original):
        @functools.wraps(original)
        def wrapper(ctx, *args, **kwargs):
            kind = self._kind.get(id(ctx), "base")
            index = self._open(f"lattice.enumerate.{kind}")
            try:
                lat = original(ctx, *args, **kwargs)
            finally:
                self._close(index)
            self.concept_counts[kind].append(len(lat))
            self._watch_covers(lat)
            return lat

        return wrapper

    def _watch_covers(self, lat) -> None:
        """Time the first read of ``lat.covers``, wherever it happens.

        The lattice's class is swapped for a subclass whose ``covers``
        property records a span on the first read and otherwise returns
        what the original attribute or descriptor gives.
        """
        base = type(lat)
        traced = self._lattice_classes.get(base)
        if traced is None:
            tracer = self

            def covers(lattice):
                if "covers" in vars(lattice):
                    read = lambda: vars(lattice)["covers"]
                else:
                    read = lambda: super(traced, lattice).covers
                if lattice not in tracer._covers_unread:
                    return read()
                tracer._covers_unread.discard(lattice)
                index = tracer._open("lattice.covers")
                try:
                    value = read()
                finally:
                    tracer._close(index)
                tracer.cover_counts.append(len(value))
                return value

            traced = type(base.__name__, (base,), {"covers": property(covers)})
            self._lattice_classes[base] = traced
        lat.__class__ = traced
        self._covers_unread.add(lat)

    # -- results --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as tab-separated lines: index, parent, operation, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("index\tparent\top\tname\tstart_ns\tend_ns\n")
            for i, s in enumerate(self.spans):
                out.write(f"{i}\t{s[PARENT]}\t{s[OP]}\t{s[NAME]}\t{s[START]}\t{s[END]}\n")

    def layer_metrics(self, operations: int) -> dict[str, float]:
        """Per-layer figures; see the README for what each one divides by."""
        spans = self.spans
        child_all = [0] * len(spans)
        child_maps = [0] * len(spans)  # approximation contexts and enumerations
        for s in spans:
            if s[PARENT] >= 0:
                duration = s[END] - s[START]
                child_all[s[PARENT]] += duration
                if s[NAME].startswith(("approx.context", "lattice.enumerate")):
                    child_maps[s[PARENT]] += duration
        per_op: Counter = Counter()  # outermost time per span name, in operations only
        calls: Counter = Counter()
        self_time: Counter = Counter()
        per_call: dict[str, list[float]] = defaultdict(list)
        for i, s in enumerate(spans):
            name, duration = s[NAME], (s[END] - s[START]) / 1e9
            if name == "concepts.maps" or (name.startswith("lattice.") and name != "lattice.meet_join"):
                own = (s[END] - s[START] - child_maps[i]) / 1e9 if name == "concepts.maps" else duration
                per_call[name].append(own)
            if s[OP] < 0:
                continue
            if s[OUTER]:
                per_op[name] += duration
                calls[name] += 1
            self_time[name] += (s[END] - s[START] - child_all[i]) / 1e9
        ops = max(operations, 1)
        out = {
            "formats.parse_s": per_op["formats.parse"] / ops,
            "formats.render_s": per_op["formats.render"] / ops,
            "context.derive_s": per_op["context.derive"] / ops,
            "context.derive_calls": calls["context.derive"] / ops,
            "approx.context_s": per_op["approx.context"] / ops,
            "approx.extent_s": per_op["approx.extent"] / ops,
        }
        for kind in KINDS:
            out[f"lattice.enumerate_s.{kind}"] = _mean(per_call[f"lattice.enumerate.{kind}"])
        out["lattice.covers_s"] = _mean(per_call["lattice.covers"])
        for kind in KINDS:
            out[f"lattice.concepts.{kind}"] = _mean(self.concept_counts[kind])
        out["lattice.cover_pairs"] = _mean(self.cover_counts)
        out["lattice.meet_join_s"] = per_op["lattice.meet_join"] / ops
        out["concepts.image_s"] = _mean(per_call["concepts.maps"])
        out["concepts.classes_s"] = per_op["concepts.classes"] / ops
        out["concepts.query_s"] = per_op["concepts.query"] / ops
        out["rules.eval_s"] = per_op["rules.eval"] / ops
        out["rules.calls"] = calls["rules.eval"] / ops
        out["report.build_self_s"] = self_time["report.build"] / ops
        out["cli.run_self_s"] = self_time["cli.run"] / ops
        return out
