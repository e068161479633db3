"""Spans around the package's layers, recorded from outside the package.

``patched(tracer)`` replaces each traced function at the name its caller
looks up (``eigen.build_graph``, ``validate.fourier_values``, ...) with a
wrapper that records a span, and restores every original on exit.  Spans
(name, start, end, parent, request id) stay in flat arrays in memory and are
written out once, at the end of the run.

A span's self time is its duration minus its direct children's.  The
per-layer metrics are means per traced request unless the name says
otherwise: ``.candidates``, ``.kept``, ``.digits``, ``.edges``,
``.elements`` and ``.words_tried`` are means per call, ``.ms_per_call.*``
are scaling curves, and ``*_ratio`` / ``.found`` / ``.share`` are ratios.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional


class Tracer:
    """In-memory span log with one open-span stack."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.attrs: dict[int, dict] = {}
        self.request_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable, record: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``record(args, result)`` adds counts after it closes."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if record is not None:
                self.attrs[idx] = record(args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """All spans as one JSON document of parallel columns."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _graph(args, system) -> dict:
    return {"base": system.base, "candidates": system.hi - system.lo + 1, "edges": len(system.edges)}


# (module, attribute the caller looks up, span name, counts recorder).  The
# span name is the defining module's, with ``speigen._kernels`` written
# ``kernels`` because metric names must start with a letter or digit.
# spectrum_level is bound in two modules and gets a wrapper at each
# binding; no call resolves through both.
PATCHES: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("speigen.cli", "build_parser", "cli.build_parser", None),
    ("speigen.instance", "from_descriptor", "instance.from_descriptor", None),
    ("speigen.eigen", "find_sign_word", "eigen.find_sign_word", lambda a, r: {"found": r is not None}),
    ("speigen.eigen", "decide_scaling_signed", "eigen.decide_scaling_signed", lambda a, r: {"word": list(a[2].pattern)}),
    ("speigen.eigen", "build_graph", "attractor.build_graph", _graph),
    ("speigen.eigen", "_find_nonzero_cycle", "attractor.find_nonzero_cycle", lambda a, r: {"found": r is not None}),
    ("speigen.attractor", "integer_points", "attractor.integer_points", lambda a, r: {"kept": len(r), "digits": len(a[1])}),
    ("speigen.spectra", "spectrum_level", "spectra.spectrum_level", lambda a, r: {"k": r.level, "elements": len(r.elements)}),
    ("speigen.validate", "spectrum_level", "spectra.spectrum_level", lambda a, r: {"k": r.level, "elements": len(r.elements)}),
    ("speigen.validate", "check_orthogonal_set", "validate.check_orthogonal_set", None),
    ("speigen.validate", "completeness_probe", "validate.completeness_probe", None),
    ("speigen.validate", "q_function", "validate.q_function", None),
    ("speigen.validate", "fourier_values", "measure.fourier_values", None),
    ("speigen.validate", "zero_set_contains", "measure.zero_set_contains", None),
    ("speigen._kernels", "fourier_products", "kernels.fourier_products", lambda a, r: {"batch": len(a[0])}),
)


@contextmanager
def patched(tracer: Tracer) -> Iterator[list[str]]:
    """Install every wrapper; yields the patch targets that do not exist."""
    saved: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for module_name, attr, span_name, record in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, record))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------

CANDIDATE_DECADES = (1, 2, 3, 4, 5)  # integer_points curve bins [10**k, 10**(k+1))
PERIODS = (1, 2, 3, 4)  # build_graph / spectrum_level curve bins
BATCH_DECADES = (0, 1, 2, 3)  # fourier_products curve bins [10**k, 10**(k+1))


def _decade(n: int) -> int:
    return int(math.log10(n)) if n >= 1 else 0


def _period(base: int, m: int) -> int:
    r = 0
    while base > 1 and base % m == 0:
        base //= m
        r += 1
    return r


class Layers:
    """Per-name sums over the spans of a traced run."""

    def __init__(self, tracer: Tracer, request_m: dict[int, int]):
        n = len(tracer.start)
        names = tracer.names
        dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.by_name: dict[str, list[int]] = {}
        for i in range(n):
            name = names[tracer.name[i]]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + dur[i]
            self.self_time[name] = self.self_time.get(name, 0.0) + dur[i] - child[i]
            self.by_name.setdefault(name, []).append(i)
        self.dur = dur
        self.tracer = tracer
        self.request_m = request_m
        self.requests = self.calls.get("request", 0)
        self.request_time = self.busy.get("request", 0.0)

    def spans(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def attr(self, i: int, key: str, default=0):
        return self.tracer.attrs.get(i, {}).get(key, default)

    def per_request(self, value: float) -> float:
        return value / self.requests if self.requests else 0.0

    def curve(self, spans: list[int], key: Callable[[int], int], bins) -> dict[int, float]:
        """Mean span time in ms per bin."""
        total = {b: 0.0 for b in bins}
        count = {b: 0 for b in bins}
        for i in spans:
            b = key(i)
            if b in total:
                total[b] += self.dur[i]
                count[b] += 1
        return {b: (1e3 * total[b] / count[b] if count[b] else 0.0) for b in bins}


def layer_metrics(layers: Layers) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    L = layers
    out: dict[str, tuple[float, str]] = {}

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def share(name: str) -> float:
        return L.busy.get(name, 0.0) / L.request_time if L.request_time else 0.0

    # Candidates come from the AttractorSystem that the enclosing build_graph returns.
    points = L.spans("attractor.integer_points")
    graph_of = {L.tracer.parent[i]: i for i in points}
    candidates = {i: L.attr(p, "candidates") for p, i in graph_of.items()}
    kept = [L.attr(i, "kept") for i in points]
    out["attractor.integer_points.busy_s"] = (L.per_request(L.busy.get("attractor.integer_points", 0.0)), "s")
    out["attractor.integer_points.share"] = (share("attractor.integer_points"), "ratio")
    out["attractor.integer_points.candidates"] = (mean([candidates.get(i, 0) for i in points]), "count")
    out["attractor.integer_points.kept"] = (mean(kept), "count")
    total_candidates = sum(candidates.values())
    out["attractor.integer_points.kept_ratio"] = (sum(kept) / total_candidates if total_candidates else 0.0, "ratio")
    out["attractor.integer_points.digits"] = (mean([L.attr(i, "digits") for i in points]), "count")
    curve = L.curve(points, lambda i: _decade(candidates.get(i, 0)), CANDIDATE_DECADES)
    for k, v in curve.items():
        out[f"attractor.integer_points.ms_per_call.c1e{k}"] = (v, "ms")

    graphs = L.spans("attractor.build_graph")
    out["attractor.build_graph.self_s"] = (L.per_request(L.self_time.get("attractor.build_graph", 0.0)), "s")
    out["attractor.build_graph.edges"] = (mean([L.attr(i, "edges") for i in graphs]), "count")
    m_of = L.request_m
    curve = L.curve(graphs, lambda i: _period(L.attr(i, "base"), m_of[L.tracer.request[i]]), PERIODS)
    for r, v in curve.items():
        out[f"attractor.build_graph.ms_per_call.r{r}"] = (v, "ms")

    cycles = L.spans("attractor.find_nonzero_cycle")
    out["attractor.find_nonzero_cycle.busy_s"] = (L.per_request(L.busy.get("attractor.find_nonzero_cycle", 0.0)), "s")
    out["attractor.find_nonzero_cycle.calls"] = (L.per_request(len(cycles)), "count")
    out["attractor.find_nonzero_cycle.found"] = (mean([float(L.attr(i, "found")) for i in cycles]), "ratio")

    levels = L.spans("spectra.spectrum_level")
    out["spectra.spectrum_level.busy_s"] = (L.per_request(L.busy.get("spectra.spectrum_level", 0.0)), "s")
    out["spectra.spectrum_level.elements"] = (mean([L.attr(i, "elements") for i in levels]), "count")
    curve = L.curve(levels, lambda i: L.attr(i, "k"), PERIODS)
    for r, v in curve.items():
        out[f"spectra.spectrum_level.ms_per_call.r{r}"] = (v, "ms")

    searches = L.spans("eigen.find_sign_word")
    signed = L.spans("eigen.decide_scaling_signed")
    search_ids = set(searches)
    tried: dict[int, set] = {i: set() for i in searches}
    in_search = 0
    for i in signed:
        p = L.tracer.parent[i]
        if p in search_ids:
            tried[p].add(tuple(L.attr(i, "word", ())))
            in_search += 1
    found = sum(1 for i in searches if L.attr(i, "found"))
    out["eigen.find_sign_word.words_tried"] = (mean([len(v) for v in tried.values()]), "count")
    out["eigen.find_sign_word.hit_ratio"] = (found / in_search if in_search else 0.0, "ratio")
    out["eigen.decide_scaling_signed.self_s"] = (L.per_request(L.self_time.get("eigen.decide_scaling_signed", 0.0)), "s")

    kernel = L.spans("kernels.fourier_products")
    busy = L.busy.get("kernels.fourier_products", 0.0)
    freqs = sum(L.attr(i, "batch") for i in kernel)
    out["kernels.fourier_products.calls"] = (L.per_request(len(kernel)), "count")
    out["kernels.fourier_products.busy_s"] = (L.per_request(busy), "s")
    out["kernels.fourier_products.share"] = (share("kernels.fourier_products"), "ratio")
    out["kernels.fourier_products.frequencies"] = (L.per_request(freqs), "count")
    out["kernels.fourier_products.mean_batch"] = (freqs / len(kernel) if kernel else 0.0, "count")
    out["kernels.fourier_products.freq_per_s"] = (freqs / busy if busy else 0.0, "1/s")
    curve = L.curve(kernel, lambda i: _decade(L.attr(i, "batch")), BATCH_DECADES)
    for k, v in curve.items():
        out[f"kernels.fourier_products.ms_per_call.b1e{k}"] = (v, "ms")

    out["validate.completeness_probe.self_s"] = (L.per_request(L.self_time.get("validate.completeness_probe", 0.0)), "s")
    out["validate.q_function.calls"] = (L.per_request(L.calls.get("validate.q_function", 0)), "count")
    out["validate.check_orthogonal_set.self_s"] = (
        L.per_request(L.self_time.get("validate.check_orthogonal_set", 0.0)),
        "s",
    )
    out["measure.zero_set_contains.calls"] = (L.per_request(L.calls.get("measure.zero_set_contains", 0)), "count")
    out["measure.zero_set_contains.busy_s"] = (L.per_request(L.busy.get("measure.zero_set_contains", 0.0)), "s")

    out["cli.build_parser.busy_s"] = (L.per_request(L.busy.get("cli.build_parser", 0.0)), "s")
    out["cli.main.self_s"] = (L.per_request(L.self_time.get("cli.main", 0.0)), "s")
    out["instance.from_descriptor.busy_s"] = (L.per_request(L.busy.get("instance.from_descriptor", 0.0)), "s")
    out["unattributed_s"] = (L.per_request(L.self_time.get("request", 0.0)), "s")
    return out


def layer_table(layers: Layers) -> list[str]:
    """Human-readable calls, busy and self time per request for every span name."""
    L = layers
    lines = [f"{'span':<32} {'calls/req':>10} {'busy ms/req':>12} {'self ms/req':>12} {'share':>7}"]
    for name in sorted(L.calls, key=lambda n: -L.busy[n]):
        share = L.busy[name] / L.request_time if L.request_time else 0.0
        lines.append(
            f"{name:<32} {L.per_request(L.calls[name]):>10.2f} {1e3 * L.per_request(L.busy[name]):>12.3f} "
            f"{1e3 * L.per_request(L.self_time[name]):>12.3f} {share:>7.1%}"
        )
    return lines
