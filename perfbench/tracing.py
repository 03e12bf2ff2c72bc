"""Span tracer for the traced run, installed from outside the package.

The tracer replaces the public functions that callers look up at call time
(module attributes, the names ``cli`` imported, and ``PermGroup`` methods)
with wrappers that record one span per call: id, parent id, layer name,
start and end.  Spans stay in memory and are written out once, at the end.
Nothing under ``src/`` changes; ``uninstall`` puts every original back.

A layer's self time is its spans' durations minus the time their child
spans cover.  Kernels are too fine-grained to wrap per call; they are
measured by the micro-benchmarks in ``kernels.py`` instead.
"""
from __future__ import annotations

import functools
import json
import time
import weakref
from pathlib import Path

# Span names in a fixed order; each maps to the per-layer metrics below.
SPAN_NAMES = (
    "cli.main", "cli.verify", "cayley.build", "graphio.parse", "graphio.serialize",
    "aut.search", "aut.profile", "aut.tutte", "aut.arc_transitive",
    "perm.chain", "perm.contains", "kcirc.spectrum", "kcirc.certify",
    "quotient.quotient", "quotient.harness",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.active = False  # spans are recorded only while active
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._chained: weakref.WeakSet = weakref.WeakSet()
        self.counts = dict.fromkeys(
            ("aut.generators", "perm.aut_order", "perm.base_len", "perm.members",
             "perm.queries", "kcirc.spectrum_ks", "kcirc.certify_hits"), 0)

    def _call(self, name: str, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self._call(name, original, args, kwargs)
            if on_result is not None and self.active:
                on_result(result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _wrap_group_query(self, perm, attr: str) -> None:
        """First order/contains on a group builds its chain: a perm.chain span."""
        original = getattr(perm.PermGroup, attr)
        tracer = self

        @functools.wraps(original)
        def traced(group, *args):
            if not tracer.active:
                return original(group, *args)
            first = group not in tracer._chained
            if not first and attr == "order":
                return original(group, *args)
            tracer._chained.add(group)
            name = "perm.chain" if first else "perm.contains"
            result = tracer._call(name, original, (group, *args), {})
            counts = tracer.counts
            if first:
                counts["perm.aut_order"] += group.order()
                counts["perm.base_len"] += len(group.base())
            if attr == "contains":
                counts["perm.queries"] += 1
                counts["perm.members"] += bool(result)
            return result

        self._patched.append((perm.PermGroup, attr, original))
        setattr(perm.PermGroup, attr, traced)

    def install(self, pkg) -> None:
        """Wrap the public entry points of every layer of the package."""
        cli, graphio, aut, kcirc, quotient, perm = (
            pkg.cli, pkg.graphio, pkg.aut, pkg.kcirc, pkg.quotient, pkg.perm)
        counts = self.counts

        def count(key, measure):
            def on_result(result):
                counts[key] += measure(result)
            return on_result

        self._wrap(cli, "main", "cli.main")
        self._wrap(cli, "verify_construction", "cli.verify")
        self._wrap(cli, "build_odd", "cayley.build")
        self._wrap(cli, "build_even", "cayley.build")
        self._wrap(graphio, "parse_edgelist", "graphio.parse")
        self._wrap(graphio, "parse_graph6", "graphio.parse")
        self._wrap(graphio, "serialize", "graphio.serialize")
        self._wrap(aut, "automorphism_group", "aut.search",
                   count("aut.generators", lambda r: len(r.generators)))
        self._wrap(aut, "symmetry_profile", "aut.profile")
        self._wrap(aut, "tutte_type", "aut.tutte")
        self._wrap(aut, "is_arc_transitive", "aut.arc_transitive")
        self._wrap(kcirc, "k_spectrum", "kcirc.spectrum",
                   count("kcirc.spectrum_ks", lambda r: len(r.spectrum)))
        self._wrap(kcirc, "certify_k_circulant", "kcirc.certify",
                   count("kcirc.certify_hits", lambda r: r is not None))
        self._wrap(quotient, "quotient_graph", "quotient.quotient")
        self._wrap(quotient, "induced_semiregular_harness", "quotient.harness")
        self._wrap_group_query(perm, "order")
        self._wrap_group_query(perm, "contains")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """(self seconds, calls) per span name."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: (0.0, 0) for name in SPAN_NAMES}
        for sid, _, name, start, end in self.spans:
            secs, calls = out[name]
            out[name] = (secs + (end - start) - child_time[sid], calls + 1)
        return out

    def top_self_times(self, count: int = 3) -> list[tuple[str, float, float]]:
        """(span name, self seconds, share of all self time), largest first."""
        st = self.self_times()
        total = sum(secs for secs, _ in st.values()) or 1.0
        ranked = sorted(st.items(), key=lambda kv: -kv[1][0])[:count]
        return [(name, secs, secs / total) for name, (secs, _) in ranked]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["id", "parent", "name", "start", "end"],
                                    "spans": self.spans}))


# The per-layer metrics each workload exercises.  A layer a workload never
# calls is left out of its results rather than reported as 0.
SEARCH_AND_SPECTRUM = (
    "graphio.parse_s", "graphio.parse_calls",
    "aut.search_s", "aut.search_calls", "aut.generators", "aut.profile_s", "aut.tutte_s",
    "aut.arc_transitive_s", "perm.chain_s", "perm.chain_calls", "perm.aut_order",
    "perm.base_len", "kcirc.spectrum_s", "kcirc.spectrum_calls", "kcirc.spectrum_ks",
    "quotient.quotient_s", "quotient.quotient_calls", "cli.self_s",
)
WORKLOAD_LAYERS = {
    "ladder": SEARCH_AND_SPECTRUM + ("graphio.serialize_s", "cayley.build_s",
                                     "cayley.build_calls", "cli.verify_s"),
    "scan": SEARCH_AND_SPECTRUM + ("cli.skip_frac",),
    "queries": (
        "perm.chain_s", "perm.chain_calls", "perm.aut_order", "perm.base_len",
        "perm.contains_s", "perm.contains_calls", "perm.member_frac",
        "kcirc.certify_s", "kcirc.certify_calls", "kcirc.certify_hit_frac",
        "quotient.quotient_s", "quotient.quotient_calls",
        "quotient.harness_s", "quotient.harness_calls",
    ),
}


def layer_metrics(tracer: Tracer, workload: str, skip_frac: float) -> dict[str, float]:
    """The workload's per-layer metrics for one traced pass, from its spans and counters."""
    st = tracer.self_times()
    c = tracer.counts
    every = {
        "graphio.parse_s": st["graphio.parse"][0],
        "graphio.parse_calls": st["graphio.parse"][1],
        "graphio.serialize_s": st["graphio.serialize"][0],
        "cayley.build_s": st["cayley.build"][0],
        "cayley.build_calls": st["cayley.build"][1],
        "aut.search_s": st["aut.search"][0],
        "aut.search_calls": st["aut.search"][1],
        "aut.generators": c["aut.generators"],
        "aut.profile_s": st["aut.profile"][0],
        "aut.tutte_s": st["aut.tutte"][0],
        "aut.arc_transitive_s": st["aut.arc_transitive"][0],
        "perm.chain_s": st["perm.chain"][0],
        "perm.chain_calls": st["perm.chain"][1],
        "perm.aut_order": c["perm.aut_order"],
        "perm.base_len": c["perm.base_len"],
        "perm.contains_s": st["perm.contains"][0],
        "perm.contains_calls": st["perm.contains"][1],
        "perm.member_frac": c["perm.members"] / max(c["perm.queries"], 1),
        "kcirc.spectrum_s": st["kcirc.spectrum"][0],
        "kcirc.spectrum_calls": st["kcirc.spectrum"][1],
        "kcirc.spectrum_ks": c["kcirc.spectrum_ks"],
        "kcirc.certify_s": st["kcirc.certify"][0],
        "kcirc.certify_calls": st["kcirc.certify"][1],
        "kcirc.certify_hit_frac": c["kcirc.certify_hits"] / max(st["kcirc.certify"][1], 1),
        "quotient.quotient_s": st["quotient.quotient"][0],
        "quotient.quotient_calls": st["quotient.quotient"][1],
        "quotient.harness_s": st["quotient.harness"][0],
        "quotient.harness_calls": st["quotient.harness"][1],
        "cli.verify_s": st["cli.verify"][0],
        "cli.self_s": st["cli.main"][0],
        "cli.skip_frac": skip_frac,
    }
    return {key: every[key] for key in WORKLOAD_LAYERS[workload]}
