"""In-memory span recorder that wraps library functions from the outside.

During a traced run only, `Tracer.install()` replaces a function's name in
the namespace of the module that *calls* it (e.g. `region_grow` inside
`scatterkit.decouple`, where `decouple_steps` looks it up), so no library
code changes. Spans are (name, start, end, parent, instance) records kept
in a list and written out once, at the end of the run. A function that no
longer exists is reported absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (calling module, attribute, span name). The span name is the layer module
# that defines the function, then the function name.
TARGETS = (
    ("scatterkit.annotio", "_annotate_instance_skaa", "annotio.instance"),
    ("scatterkit.annotio", "_annotate_instance_dog", "annotio.instance_dog"),
    ("scatterkit.annotio", "read_chip", "chipio.read_chip"),
    ("scatterkit.annotio", "parse_annotation", "annotio.parse_annotation"),
    ("scatterkit.annotio", "crop_chip", "annotio.crop_chip"),
    ("scatterkit.annotio", "taylor_window_2d", "spectral.taylor_window_2d"),
    ("scatterkit.annotio", "fit_scatterer", "ascmodel.fit_scatterer"),
    ("scatterkit.annotio", "cluster_keypoints", "keypoints.cluster_keypoints"),
    ("scatterkit.annotio", "dog_keypoints", "keypoints.dog_keypoints"),
    ("scatterkit.annotio", "write_annotation", "annotio.write_annotation"),
    ("scatterkit.decouple", "mask_block_bfs", "decouple.mask_block_bfs"),
    ("scatterkit.decouple", "region_grow", "decouple.region_grow"),
    ("scatterkit.ascmodel", "base_psf", "ascmodel.base_psf"),
    ("scatterkit.cli", "parse_predictions", "annotio.parse_predictions"),
    ("scatterkit.cli", "parse_annotation", "annotio.parse_annotation"),
    ("scatterkit.cli", "average_precision_grouped", "metrics.average_precision_grouped"),
    ("scatterkit.cli", "rotated_iou", "metrics.rotated_iou"),
    ("scatterkit.metrics", "rotated_iou", "metrics.rotated_iou"),
)

# Work the tracer itself does after a call returns (counting pixels, etc.).
# It is recorded as a child span so that it never lands in a layer's self time.
STATS = "trace.stats"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int            # index into Tracer.spans, -1 for a root
    instance: int          # -1 outside any instance
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _support_stats(args, result) -> dict:
    r, _seed_mask, params = args[:3]
    vals = r.values
    db = 10.0 * np.log10((vals + params.eps) / float(vals.max()))
    return {"omega_px": int(np.count_nonzero(db > params.grow_floor_db)),
            "support_px": int(np.count_nonzero(result.labels == 1))}


def _fit_stats(args, result) -> dict:
    region, grid = np.asarray(args[0]), args[1]
    sup = region > 0
    rows = np.flatnonzero(sup.any(axis=1))
    cols = np.flatnonzero(sup.any(axis=0))
    # candidate box of fit_scatterer: support bbox dilated by 2 px, clamped
    ny = min(int(rows[-1]) + 2, grid.height - 1) - max(int(rows[0]) - 2, 0) + 1
    nx = min(int(cols[-1]) + 2, grid.width - 1) - max(int(cols[0]) - 2, 0) + 1
    return {"ops": ny * nx * int(np.count_nonzero(sup)), "x": result.x, "y": result.y}


_STATS_FNS = {
    "decouple.region_grow": _support_stats,
    "ascmodel.fit_scatterer": _fit_stats,
    "annotio.crop_chip": lambda args, result: {"origin": result[1]},
    "keypoints.cluster_keypoints": lambda args, result: {"points": len(args[0])},
    "chipio.read_chip": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "annotio.instance": lambda args, result: {"image": args[2], "idx": args[3]},
}


class Tracer:
    """Collects spans from wrapped functions; thread-safe for appends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._installed: set[str] = set()
        self._next_instance = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.instance = -1
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if name == "annotio.instance":
            with self._lock:
                self._local.instance = self._next_instance
                self._next_instance += 1
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    self._local.instance)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if self.spans[idx].name == "annotio.instance":
            self._local.instance = -1

    def _wrap(self, fn, name: str):
        stats = _STATS_FNS.get(name)

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if stats is not None:
                sidx = self.open(STATS)  # a sibling: the stack top is idx's parent
                try:
                    self.spans[idx].info = stats(args, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # the function changed shape; its counts read 0
                self.close(sidx)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            self._installed.add(name)
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------ analysis

    def self_ms(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.ms for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.ms
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "instance": s.instance,
                                     **{k: v for k, v in s.info.items()
                                        if isinstance(v, (int, float, str))}}) + "\n")

    def absent_layers(self) -> set[str]:
        """Span names none of whose wrapped functions exist any more."""
        return {name for _, _, name in TARGETS} - self._installed


def _p(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, *, n_inst: int, n_det: int, n_calls: int,
                  n_max: int, truth: dict) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced pass.

    `n_inst` instances were annotated (0 on eval), `n_det` detections were
    evaluated in `n_calls` eval calls (0 on annotate). Layers the workload
    does not run read 0.
    """
    from scatterkit.metrics import greedy_point_match  # after sys.path is set

    self_ms = tracer.self_ms()
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    by_name: dict[str, list[Span]] = {}
    for s, own_ms in zip(tracer.spans, self_ms):
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.ms
        own[s.name] = own.get(s.name, 0.0) + own_ms
        by_name.setdefault(s.name, []).append(s)

    def per(value: float, base: int) -> float:
        return value / base if base else 0.0

    grows = by_name.get("decouple.region_grow", [])
    fits = by_name.get("ascmodel.fit_scatterer", [])
    steps_by_inst: dict[int, int] = {}
    for s in grows:
        steps_by_inst[s.instance] = steps_by_inst.get(s.instance, 0) + 1
    omega = sum(s.info.get("omega_px", 0) for s in grows)
    support = sum(s.info.get("support_px", 0) for s in grows)
    ops = [s.info["ops"] for s in fits if "ops" in s.info]
    reads = by_name.get("chipio.read_chip", [])

    # criterion-1 style error: fits in source-image pixels vs the top-9 truth
    origin = {s.instance: s.info["origin"] for s in by_name.get("annotio.crop_chip", [])
              if "origin" in s.info}
    fit_xy: dict[int, list[tuple[float, float]]] = {}
    for s in fits:
        if s.instance in origin and "x" in s.info:
            ox, oy = origin[s.instance]
            fit_xy.setdefault(s.instance, []).append((s.info["x"] + ox, s.info["y"] + oy))
    errs = []
    for s in by_name.get("annotio.instance", []):
        t = truth.get((s.info.get("image"), s.info.get("idx")))
        if t is None or s.instance not in fit_xy:
            continue
        top9 = t[np.argsort(-t[:, 2], kind="stable")[:9], :2]
        pairs = greedy_point_match(top9, np.array(fit_xy[s.instance]))
        if pairs:
            errs.append(float(np.mean([d for _, _, d in pairs])))

    return {
        "decouple.region_grow.self_ms_per_inst": per(own.get("decouple.region_grow", 0.0), n_inst),
        "decouple.mask_block_bfs.self_ms_per_inst": per(own.get("decouple.mask_block_bfs", 0.0), n_inst),
        "decouple.steps_per_inst": per(len(grows), n_inst),
        "decouple.stop_nmax_fraction": per(sum(1 for v in steps_by_inst.values() if v >= n_max), n_inst),
        "decouple.omega_px_per_step": per(omega, len(grows)),
        "decouple.support_px_per_step": per(support, len(grows)),
        "decouple.grow_useful_ratio": per(support, omega),
        "ascmodel.fit_scatterer.self_ms_per_fit": per(own.get("ascmodel.fit_scatterer", 0.0), len(fits)),
        "ascmodel.base_psf.calls_per_inst": per(calls.get("ascmodel.base_psf", 0), n_inst),
        "ascmodel.base_psf.ms_per_inst": per(total.get("ascmodel.base_psf", 0.0), n_inst),
        "ascmodel.fit_ops_per_fit.p50": _p(ops, 50),
        "ascmodel.fit_ops_per_fit.p90": _p(ops, 90),
        "ascmodel.fit_ops_per_fit.max": float(max(ops, default=0)),
        "ascmodel.fit_err_px": float(np.mean(errs)) if errs else 0.0,
        "spectral.taylor_window_2d.calls_per_inst": per(calls.get("spectral.taylor_window_2d", 0), n_inst),
        "spectral.taylor_window_2d.ms_per_inst": per(total.get("spectral.taylor_window_2d", 0.0), n_inst),
        "chipio.read_chip.ms_per_image": per(total.get("chipio.read_chip", 0.0), len(reads)),
        "chipio.read_mb": per(sum(s.info.get("bytes", 0) for s in reads) / 1e6, len(reads)),
        "annotio.parse_annotation.ms_per_image": per(total.get("annotio.parse_annotation", 0.0),
                                                     calls.get("annotio.parse_annotation", 0)),
        "annotio.crop_chip.ms_per_inst": per(total.get("annotio.crop_chip", 0.0), n_inst),
        "annotio.write_annotation.ms_per_image": per(total.get("annotio.write_annotation", 0.0),
                                                     calls.get("annotio.write_annotation", 0)),
        "annotio.instance.self_ms_per_inst": per(own.get("annotio.instance", 0.0), n_inst),
        "annotio.parse_predictions.ms": per(total.get("annotio.parse_predictions", 0.0),
                                            calls.get("annotio.parse_predictions", 0)),
        "keypoints.cluster_keypoints.self_ms_per_inst": per(own.get("keypoints.cluster_keypoints", 0.0), n_inst),
        "keypoints.cluster_input_points": per(sum(s.info.get("points", 0) for s in by_name.get(
            "keypoints.cluster_keypoints", [])), calls.get("keypoints.cluster_keypoints", 0)),
        "keypoints.dog_keypoints.ms_per_inst": per(total.get("keypoints.dog_keypoints", 0.0),
                                                   calls.get("keypoints.dog_keypoints", 0)),
        "metrics.rotated_iou.calls_per_det": per(calls.get("metrics.rotated_iou", 0), n_det),
        "metrics.rotated_iou.us_per_call": per(1e3 * total.get("metrics.rotated_iou", 0.0),
                                               calls.get("metrics.rotated_iou", 0)),
        "metrics.average_precision_grouped.self_ms": per(own.get("metrics.average_precision_grouped", 0.0),
                                                         n_calls),
    }
