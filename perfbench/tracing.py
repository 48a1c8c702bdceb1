"""Span recording around the package's public functions, from outside.

The tracer replaces, for the length of a traced pass, every public
function that ``ulabeam.cli`` imported from another package module (plus
``cli.load_scenario`` and ``ulabeam.metrics.field_at``) with a wrapper
that records a span: name, start, end, parent span and command id. Spans
stay in memory and are written out when the pass ends. Classes that
``cli`` imported are left alone, because ``cli`` uses them in
``isinstance`` tests.

Work counts (pairs, calls, plan statuses) are computed from each wrapped
call's own arguments and results, so for a given seed they repeat
exactly; none of them is measured inside the package.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time

# Span name per wrapped function: the layer (module) it belongs to. A
# public function that cli imports and that is missing here still gets a
# span, named <module>.<function>.
SPAN_NAMES = {
    "load_scenario": "cli.load_scenario",
    "bessel_phases": "bessel",
    "max_spacing": "bessel",
    "min_elements": "bessel",
    "propagation_limits": "bessel",
    "self_heal_circle": "bessel",
    "self_heal_rect": "bessel",
    "circle_bounding_square": "array_geometry",
    "plan_with_fallback": "curving.plan",
    "plan_excitation": "curving.excitation",
    "gaussian_excitation": "field.excitation",
    "focusing_excitation": "field.excitation",
    "normalize_power": "field.excitation",
    "field_grid": "field.grid",
    "line_cut": "field.line_cut",
    "write_field_csv": "field.write_csv",
    "write_field_pgm": "field.write_pgm",
    "field_at": "field.at",
    "pooled_box_amplitudes": "metrics.pooled",
    "area_average": "metrics.area_average",
    "amplitude_at_user": "metrics.user_amp",
    "empirical_cdf": "metrics.cdf",
    "write_cdf_csv": "metrics.cdf",
}
ROOT = "cli.main"


def _pairs(name: str, a: dict, result) -> dict:
    """Work counts of one call, from its arguments (by parameter name) and result."""
    if name == "field_grid":
        return {"pairs": a["nx"] * a["ny"] * a["cfg"].n_elements, "grid": a}
    if name == "line_cut":
        return {"pairs": a["samples"] * a["cfg"].n_elements}
    if name == "pooled_box_amplitudes":
        box, scenarios = a["box"], a["scenarios"]
        return {"pairs": len(scenarios.entries) * box.nx * box.ny * scenarios.cfg.n_elements}
    if name == "area_average":
        return {"pairs": a["box"].nx * a["box"].ny * a["cfg"].n_elements}
    if name in ("amplitude_at_user", "field_at"):
        return {"pairs": a["cfg"].n_elements}
    if name == "plan_with_fallback":
        return {"status": result.status}
    return {}


COUNTED = ("field_grid", "line_cut", "pooled_box_amplitudes", "area_average", "amplitude_at_user", "field_at", "plan_with_fallback")


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.command = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, span_name: str, fn):
        signature = inspect.signature(fn) if name in COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": span_name, "parent": self._stack[-1] if self._stack else None, "cmd": self.command}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(_pairs(name, bound.arguments, result))
            return result

        return traced

    def install(self, cli, metrics) -> None:
        for name, obj in list(vars(cli).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == cli.__name__ and name != "load_scenario":
                continue
            short = obj.__module__.rsplit(".", 1)[-1]
            self._patch(cli, name, SPAN_NAMES.get(name, f"{short}.{name}"))
        self._patch(metrics, "field_at", SPAN_NAMES["field_at"])

    def _patch(self, module, name: str, span_name: str) -> None:
        fn = getattr(module, name)
        self._restore.append((module, name, fn))
        setattr(module, name, self._wrap(name, span_name, fn))

    def uninstall(self) -> None:
        while self._restore:
            module, name, fn = self._restore.pop()
            setattr(module, name, fn)

    def call_main(self, main, argv):
        """Run cli.main(argv) as the root span of the current command."""
        return self._wrap("main", ROOT, main)(argv)

    def finish(self) -> None:
        """Derive each span's self time: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            span["s"] = span["end"] - span["start"]
            if span["parent"] is not None:
                child[span["parent"]] += span["s"]
        for span, c in zip(self.spans, child):
            span["self_s"] = span["s"] - c

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                row = {k: v for k, v in span.items() if k != "grid"}
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _sum(spans, name: str, key: str = "s") -> float:
    return float(sum(s[key] for s in spans if s["name"] == name))


def _count(spans, name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def layer_metrics(spans: list[dict], obstructed: tuple[int, int], bytes_written: dict[str, int], unique_pairs: int) -> dict:
    """Per-layer metrics from one traced pass: name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}
    for name in ("cli.load_scenario", "bessel", "curving.plan", "field.excitation", "field.grid", "field.line_cut", "field.at"):
        m[f"{name}.s"] = (_sum(spans, name), "s")
        m[f"{name}.calls"] = (_count(spans, name), "count")
    for name in ("curving.excitation", "field.write_csv", "field.write_pgm", "metrics.pooled", "metrics.area_average", "metrics.user_amp", "metrics.cdf"):
        m[f"{name}.s"] = (_sum(spans, name), "s")
    main_s = _sum(spans, ROOT)
    m["cli.main.s"] = (main_s, "s")
    m["cli.main.calls"] = (_count(spans, ROOT), "count")
    m["cli.main.self_s"] = (_sum(spans, ROOT, "self_s"), "s")
    m["cli.bytes_written"] = (bytes_written["total"], "bytes")

    plans = [s for s in spans if s["name"] == "curving.plan"]
    m["curving.plan.p50_s"] = (statistics.median(s["s"] for s in plans) if plans else 0.0, "s")
    for status in ("solved", "unnecessary", "infeasible", "degenerate"):
        m[f"curving.plan.{status}"] = (sum(1 for s in plans if s["status"] == status), "count")

    grid_s = m["field.grid.s"][0]
    grid_pairs = int(sum(s["pairs"] for s in spans if s["name"] == "field.grid"))
    m["field.grid.pairs"] = (grid_pairs, "computed_pairs")
    m["field.grid.pairs_per_s"] = (grid_pairs / grid_s if grid_s > 0 else 0.0, "computed_pairs/s")
    blocked, total = obstructed
    m["field.grid.obstructed_share"] = (blocked / total if total else 0.0, "share")
    m["field.grid.share_of_main"] = (grid_s / main_s if main_s > 0 else 0.0, "share")
    m["field.line_cut.pairs"] = (int(sum(s["pairs"] for s in spans if s["name"] == "field.line_cut")), "computed_pairs")
    m["field.write_csv.bytes"] = (bytes_written["field.csv"], "bytes")

    metric_pairs = int(
        sum(s["pairs"] for s in spans if s["name"] in ("metrics.pooled", "metrics.area_average", "metrics.user_amp"))
    )
    m["metrics.pairs"] = (metric_pairs, "computed_pairs")
    m["metrics.unique_pair_share"] = (unique_pairs / metric_pairs if metric_pairs else 0.0, "share")
    return m


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds per package from ``python -X importtime`` output.

    ``total`` is the cumulative time of ``ulabeam.cli``; the package
    buckets sum each module's self time by its top-level package.
    """
    out = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "yaml": 0.0, "ulabeam": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:") :].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue
        module = fields[2].strip()
        top = module.split(".", 1)[0]
        if top in out:
            out[top] += self_us / 1e6
        if module == "ulabeam.cli":
            out["total"] = cumulative_us / 1e6
    return out
