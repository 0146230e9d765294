"""scatterkit benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload chips-clean --seed 0 --seconds 12 --trace 0

Run it from the repository root. It generates the workload's inputs from
--seed under .perfbench-work/, annotates or evaluates them through the
public API and CLI in rounds of dataset calls for at least --seconds,
checks every output, and prints one human-readable line per metric
followed by a last line of JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json; --trace 1
reports its per-layer metrics from a traced pass over half the inputs (see
spans.py). perfbench/README.md defines every metric and workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("chips-clean", "chips-speckled", "scenes-multi", "eval-rotated")
THREADS = {"chips-clean": 1, "chips-speckled": 1, "scenes-multi": 2, "eval-rotated": 1}
# images (annotate) or shards (eval) per dataset call
CHUNK = {"chips-clean": 2, "chips-speckled": 3, "scenes-multi": 1, "eval-rotated": 1}
# every call runs this often at least, and its median round counts; two
# annotate threads stall on each other when the host preempts a vCPU, so
# scenes-multi gets one more
MIN_ROUNDS = {"chips-clean": 3, "chips-speckled": 3, "scenes-multi": 4, "eval-rotated": 3}
SETUP_PROBES = 3          # set-up_s is the median of this many fresh interpreters
KERNEL_SAMPLES = 2        # calibration kernel runs between two calls
CHECK_SHARDS = 4          # eval reports recomputed with the library functions
DETERMINISM_IMAGES = 1    # scenes re-annotated with the other thread count
SELF_SUM_SLACK = 0.10     # allowed gap between layer self times and instance time
PHR_THRESHOLDS = tuple(round(0.05 * i, 10) for i in range(1, 17))  # eval's default


def _cli(argv: list[str]) -> str:
    """Run the scatterkit CLI in-process and return what it printed."""
    from scatterkit.cli import main as cli_main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"scatterkit {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _rounds(calls: list, seconds: float, min_rounds: int) -> list[list]:
    """Run every call once per round until `seconds` have passed and at
    least `min_rounds` rounds ran; returns results[call][round] as
    (result, scale) pairs.

    The calibration kernel runs KERNEL_SAMPLES times between calls; `scale`
    is REFERENCE_S over the median kernel time just before and after a
    call, so time x scale is the call's time at reference machine speed
    (see calib.py). Rounds spread each call's repeats over the run; callers
    take the median scaled round, which drops bursts the kernel missed
    without favouring rounds whose kernel samples happened to run slow.
    """
    from calib import REFERENCE_S, kernel_seconds

    def kernel() -> list[float]:
        return [kernel_seconds() for _ in range(KERNEL_SAMPLES)]

    results: list[list] = [[] for _ in calls]
    before = kernel()
    t0 = time.perf_counter()
    while len(results[0]) < min_rounds or time.perf_counter() - t0 < seconds:
        for i, call in enumerate(calls):
            result = call()
            after = kernel()
            results[i].append((result, REFERENCE_S / statistics.median(before + after)))
            before = after
    return results


def _p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[-1] if len(values) > 1 else values[0]


def _setup_probe(kind: str, data: Path):
    """A call that times one fresh interpreter doing the run's set-up, for
    the first SETUP_PROBES rounds, and does nothing after.

    It rides along in the measuring rounds, so the probes whose median is
    setup_s sample the whole run. Its time is reported as measured:
    start-up is mostly loading and linking, which the calibration kernel
    does not track.
    """
    argv = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), kind, str(data)]
    done = []

    def probe() -> float | None:
        if len(done) == SETUP_PROBES:
            return None
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120)
        done.append(time.perf_counter() - t0)
        return done[-1]
    return probe


def _measure(calls: list, seconds: float, min_rounds: int,
             probe) -> tuple[list[list], float | None]:
    """Rounds over `calls` plus the set-up probe, if any; returns the calls'
    rounds and the median probe time."""
    rounds = _rounds(calls + ([probe] if probe else []), seconds, min_rounds)
    if not probe:
        return rounds, None
    return rounds[:-1], statistics.median(t for t, _ in rounds[-1] if t is not None)


# --------------------------------------------------------------- annotate

def _annotate(index, out: Path, seed: int, cfg, threads: int):
    from scatterkit.annotio import run_skaa
    cpu0, t0 = time.process_time(), time.perf_counter()
    summary = run_skaa(index, out, master_seed=seed, dec_params=cfg.decouple,
                       k=cfg.keypoint_k, window_nbar=cfg.window_nbar,
                       window_sidelobe_db=cfg.window_sidelobe_db, threads=threads)
    wall = time.perf_counter() - t0
    return summary, wall, time.process_time() - cpu0


def _median_annotate(results: list[list], scaled: bool = True) -> tuple[float, list[float]]:
    """Instances per second over every chunk's median round, and each
    instance's median time; at reference speed unless `scaled` is false."""
    def f(scale: float) -> float:
        return scale if scaled else 1.0
    n = sum(rounds[0][0][0].instances for rounds in results)
    wall = sum(statistics.median(w * f(k) for (_, w, _), k in rounds) for rounds in results)
    inst_ms = [statistics.median(ms) for rounds in results
               for ms in zip(*([m * f(k) for m in s.instance_ms] for (s, _, _), k in rounds))]
    return n / wall, inst_ms


def _check_annotations(index, out: Path, k: int, failures: int) -> list[str]:
    """Every output parses, keeps its instance count, and carries k keypoints."""
    from scatterkit.annotio import parse_annotation
    problems, missing = [], 0
    for _, ann in index.entries:
        got = parse_annotation(out / ann.name)
        if len(got) != len(parse_annotation(ann)):
            problems.append(f"{ann.name}: instance count changed")
        for inst in got:
            if inst.keypoints is None:
                missing += 1
            elif inst.keypoints.k != k:
                problems.append(f"{ann.name}: {inst.keypoints.k} keypoints, expected {k}")
    if missing != failures:
        problems.append(f"{missing} instances lack keypoints, {failures} failures reported")
    return problems


def _check_thread_determinism(ds, out: Path, seed: int, threads: int) -> list[str]:
    """Re-annotate a few images via the CLI with the other thread count."""
    sub = ds.root / "determinism"
    for name in ("images", "annots"):
        (sub / name).mkdir(parents=True, exist_ok=True)
    stems = sorted(p.stem for p in ds.images.glob("*.csar"))[:DETERMINISM_IMAGES]
    for stem in stems:
        shutil.copy(ds.images / f"{stem}.csar", sub / "images")
        shutil.copy(ds.annots / f"{stem}.txt", sub / "annots")
    other = 1 if threads > 1 else 2
    _cli(["annotate", "--images", str(sub / "images"), "--annots", str(sub / "annots"),
          "--out", str(sub / "out"), "--seed", str(seed), "--threads", str(other)])
    return [f"{stem}: threads {threads} and {other} outputs differ" for stem in stems
            if (sub / "out" / f"{stem}.txt").read_bytes() != (out / f"{stem}.txt").read_bytes()]


def _keypoint_compare(annots_a: Path, annots_b: Path, truth: Path) -> tuple[list[float], float]:
    """Per-image truth-to-keypoint distances of set a, and a's win fraction."""
    report = _cli(["eval", "--keypoint-compare", "--annots-a", str(annots_a),
                   "--annots-b", str(annots_b), "--truth", str(truth)])
    dists = [float(m) for m in re.findall(r"^chip \S+ a=(\S+) ", report, re.M)]
    win = re.search(r"^a_win_fraction = (\S+)$", report, re.M)
    if not dists or win is None:
        raise RuntimeError("keypoint comparison report has no per-image rows")
    return dists, float(win.group(1))


def run_annotate(args, ds, threads: int, problems: list[str]) -> dict:
    from scatterkit.annotio import DatasetIndex, index_dataset, run_skaa
    from scatterkit.config import load_config
    from spans import STATS, Tracer, layer_metrics

    cfg = load_config()
    index = index_dataset(ds.images, ds.annots)
    out = ds.root / "out"
    step = CHUNK[args.workload]
    chunks = [DatasetIndex(entries=index.entries[i:i + step], root=index.root)
              for i in range(0, len(index.entries), step)]
    run_skaa(chunks[0], ds.root / "warmup", master_seed=args.seed, threads=threads)
    calls = [lambda c=c: _annotate(c, out, args.seed, cfg, threads) for c in chunks]
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_rounds = MIN_ROUNDS[args.workload]
    plain, setup_s = _measure(calls, seconds, min_rounds,
                              None if args.trace else _setup_probe("annotate", ds.root))
    tracer, traced = Tracer(), []
    if args.trace:
        with tracer:
            traced = _rounds(calls, seconds, min_rounds)
    counted = [r for rounds in (traced or plain) for r, _ in rounds]

    last_failures = sum(rounds[-1][0][0].failures for rounds in (traced or plain))
    problems += _check_annotations(index, out, cfg.keypoint_k, last_failures)
    if args.workload == "scenes-multi":
        problems += _check_thread_determinism(ds, out, args.seed, threads)

    dog_tracer = Tracer()
    with dog_tracer if args.trace else contextlib.nullcontext():
        _cli(["baseline-dog", "--images", str(ds.images), "--annots", str(ds.annots),
              "--out", str(ds.root / "dog")])
    dists, win = _keypoint_compare(out, ds.root / "dog", ds.truth)

    rate, inst_ms = _median_annotate(plain)
    raw_rate, raw_ms = _median_annotate(plain, scaled=False)
    kp = statistics.fmean(dists)
    n_ms = (f"ms at reference speed (median of {len(plain[0])} rounds, n={len(inst_ms)}; "
            f"as measured p50 {statistics.median(raw_ms):.4g}, p75 {_p75(raw_ms):.4g})")
    res = {"attempted": sum(s.instances for s, _, _ in counted),
           "failed": sum(s.failures for s, _, _ in counted), "setup_s": setup_s,
           "report": {"instances_per_s": (rate, f"1/s at reference speed (as measured "
                                                f"{raw_rate:.4g})"),
                      "instance_ms_p50": (statistics.median(inst_ms), n_ms),
                      "instance_ms_p75": (_p75(inst_ms), n_ms),
                      "kp_truth_px": (kp, f"px ({len(dists)} images)"),
                      "dog_win_fraction": (win, "fraction")}}
    if not args.trace:
        res["metrics"] = {"items_per_s": rate, "item_ms_p50": statistics.median(inst_ms),
                          "item_ms_p75": _p75(inst_ms), "kp_truth_px": kp}
        return res

    n_inst = res["attempted"]
    layers = layer_metrics(tracer, n_inst=n_inst, n_det=0, n_calls=0,
                           n_max=cfg.decouple.n_max, truth=ds.instance_truth)
    dog_layers = layer_metrics(dog_tracer, n_inst=0, n_det=0, n_calls=0, n_max=0, truth={})
    traced_rate, _ = _median_annotate(traced)
    overhead = 1.0 - traced_rate / rate
    # every traced millisecond of an instance belongs to exactly one layer's
    # self time, so their sum must match the time RunSummary recorded; there
    # is nothing to add up once the per-instance root span is absent
    layer_sum = sum(own for s, own in zip(tracer.spans, tracer.self_ms())
                    if s.instance >= 0 and s.name != STATS) / n_inst
    inst_ms_traced = statistics.fmean(m for s, _, _ in counted for m in s.instance_ms)
    gap = layer_sum / inst_ms_traced - 1.0
    if "annotio.instance" not in tracer.absent_layers() and \
            abs(gap) > abs(overhead) + SELF_SUM_SLACK:
        problems.append(f"layer self times sum to {layer_sum:.1f} ms/instance, {gap:+.1%} "
                        f"off the {inst_ms_traced:.1f} ms instances took (overhead {overhead:+.1%})")
    cpu = sum(c for rounds in plain for (_, _, c), _ in rounds)
    wall = sum(w for rounds in plain for (_, w, _), _ in rounds)
    layers.update({
        "keypoints.dog_keypoints.ms_per_inst": dog_layers["keypoints.dog_keypoints.ms_per_inst"],
        "keypoints.dog_win_fraction": win,
        "metrics.map": 0.0,
        "annotio.cpu_per_wall": cpu / wall,
        "trace.overhead_fraction": overhead,
    })
    res["metrics"] = layers
    res["tracer"] = tracer
    return res


# ------------------------------------------------------------------- eval

def _eval_call(shard) -> tuple[float, int, str]:
    gts, preds, _, n_det = shard
    t0 = time.perf_counter()
    report = _cli(["eval", "--preds", str(preds), "--gts", str(gts), "--ignore-difficult"])
    return (time.perf_counter() - t0) * 1e3, n_det, report


def _report_value(report: str, pattern: str) -> list[tuple[str, ...]]:
    return re.findall(pattern, report, re.M)


def _check_eval_report(shard, report: str) -> list[str]:
    """The printed AP, mAP, PHR and proposal precision vs the library functions."""
    from scatterkit.annotio import parse_annotation, parse_predictions
    from scatterkit.metrics import (average_precision_grouped, mean_ap, phr_curve,
                                    proposal_precision)
    gts_dir, preds_path, _, _ = shard
    preds = parse_predictions(preds_path)
    gts = {p.stem: [a for a in parse_annotation(p) if a.difficulty == 0]
           for p in sorted(gts_dir.glob("*.txt"))}
    names = sorted({a.class_name for annots in gts.values() for a in annots})
    ap = {name: average_precision_grouped(
              {img: [d for d in ds if d.class_id == cid] for img, ds in preds.items()},
              {img: [a.box for a in annots if a.class_name == name]
               for img, annots in gts.items()}, 0.5)
          for cid, name in enumerate(names)}
    n_pred = sum(len(ds) for ds in preds.values())
    phr = [0.0] * len(PHR_THRESHOLDS)
    prec = 0.0
    for img, ds in preds.items():  # both pool proposals over images
        boxes = [a.box for a in gts.get(img, [])]
        proposals = [d.box for d in ds]
        w = len(ds) / n_pred
        for i, (_, rate) in enumerate(phr_curve(proposals, boxes, PHR_THRESHOLDS)):
            phr[i] += w * rate
        prec += w * proposal_precision(proposals, boxes, 0.5)

    expect = [("map", mean_ap(ap)), ("proposal_precision", prec)]
    expect += [(f"ap {name}", v) for name, v in ap.items()]
    expect += [(f"phr {t:.2f}", r) for t, r in zip(PHR_THRESHOLDS, phr)]
    printed = {f"ap {n}": float(v) for n, v in
               _report_value(report, r"^ap class=(\S+) id=\d+ value=(\S+)$")}
    printed.update({f"phr {t}": float(v) for t, v in
                    _report_value(report, r"^phr t=(\S+) rate=(\S+)$")})
    printed.update({k: float(v) for k, v in
                    _report_value(report, r"^(map|proposal_precision) = (\S+)$")})
    problems = [f"{preds_path.name}: {key} printed {printed.get(key)} but recomputed {value:.6f}"
                for key, value in expect
                if key not in printed or abs(printed[key] - value) > 1e-6]
    if len(printed) != len(expect):
        problems.append(f"{preds_path.name}: report has {len(printed)} values, "
                        f"expected {len(expect)}")
    return problems


def _median_eval(results: list[list], scaled: bool = True) -> tuple[float, list[float]]:
    """Detections per second over every shard's median round, and each
    shard's median time per detection; at reference speed unless `scaled`
    is false."""
    ms = [statistics.median(t * (k if scaled else 1.0) for (t, _, _), k in rounds)
          for rounds in results]
    n = [rounds[0][0][1] for rounds in results]
    return 1e3 * sum(n) / sum(ms), [t / k for t, k in zip(ms, n)]


def run_eval(args, ds, problems: list[str]) -> dict:
    from spans import Tracer, layer_metrics

    _eval_call(ds.shards[0])  # warm-up
    calls = [lambda s=s: _eval_call(s) for s in ds.shards]
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_rounds = MIN_ROUNDS[args.workload]
    plain, setup_s = _measure(calls, seconds, min_rounds,
                              None if args.trace else _setup_probe("eval", ds.root))
    tracer, traced = Tracer(), []
    if args.trace:
        with tracer:
            traced = _rounds(calls, seconds, min_rounds)
    counted = [r for rounds in (traced or plain) for r, _ in rounds]

    last = [rounds[-1][0][2] for rounds in (traced or plain)]
    for shard, report in list(zip(ds.shards, last))[:CHECK_SHARDS]:
        problems += _check_eval_report(shard, report)
    maps = [float(m) for report in last for m in _report_value(report, r"^map = (\S+)$")]
    dists = []
    for gts_dir, _, truth_dir, _ in ds.shards:
        dists += _keypoint_compare(gts_dir, gts_dir, truth_dir)[0]

    rate, per_det_ms = _median_eval(plain)
    raw_rate, raw_ms = _median_eval(plain, scaled=False)
    kp = statistics.fmean(dists)
    n_ms = (f"ms at reference speed (median of {len(plain[0])} rounds, n={len(per_det_ms)} "
            f"eval calls; as measured p50 {statistics.median(raw_ms):.4g}, "
            f"p75 {_p75(raw_ms):.4g})")
    res = {"attempted": sum(n for _, n, _ in counted), "failed": 0, "setup_s": setup_s,
           "report": {"detections_per_s": (rate, f"1/s at reference speed (as measured "
                                                 f"{raw_rate:.4g})"),
                      "detection_ms_p50": (statistics.median(per_det_ms), n_ms),
                      "detection_ms_p75": (_p75(per_det_ms), n_ms),
                      "kp_truth_px": (kp, f"px ({len(dists)} images)"),
                      "map": (statistics.fmean(maps), f"mean of {len(maps)} shards")}}
    if not args.trace:
        res["metrics"] = {"items_per_s": rate, "item_ms_p50": statistics.median(per_det_ms),
                          "item_ms_p75": _p75(per_det_ms), "kp_truth_px": kp}
        return res

    layers = layer_metrics(tracer, n_inst=0, n_det=res["attempted"], n_calls=len(counted),
                           n_max=0, truth={})
    layers.update({"keypoints.dog_keypoints.ms_per_inst": 0.0,
                   "keypoints.dog_win_fraction": 0.0,
                   "metrics.map": statistics.fmean(maps),
                   "annotio.cpu_per_wall": 0.0,
                   "trace.overhead_fraction": 1.0 - _median_eval(traced)[0] / rate})
    res["metrics"] = layers
    res["tracer"] = tracer
    return res


# ------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True, help="input generator seed")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; rounds over the inputs repeat until it is spent")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced pass over half the inputs")
    ap.add_argument("--threads", type=int, default=None,
                    help="override the workload's annotate thread count (reference runs)")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "scatterkit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: needs {SRC / 'scatterkit'} and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import gen

    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ds = gen.generate(args.workload, args.seed, work / "in",
                          fraction=0.5 if args.trace else 1.0)
        problems: list[str] = []
        if ds.kind == "eval":
            res = run_eval(args, ds, problems)
        else:
            res = run_annotate(args, ds, args.threads or THREADS[args.workload], problems)
        if not args.trace:
            setup_s = res["setup_s"]
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            res["metrics"].update({"setup_s": setup_s, "peak_rss_mb": peak,
                                   "ok_fraction": 1.0 - res["failed"] / res["attempted"]})
            res["report"].update({"setup_s": (setup_s, f"s (median of {SETUP_PROBES})"),
                                  "peak_rss_mb": (peak, "MB"),
                                  "failed_fraction": (res["failed"] / res["attempted"], "fraction")})
        else:
            res["tracer"].write(WORK / f"trace-{args.workload}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(res["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(set(res['metrics']) ^ set(units))} "
                           "do not match BENCHMARK.json")
    for name, (value, unit) in res["report"].items():
        print(f"{args.workload} seed={args.seed}: {name} = {value:.6g} {unit}")
    if args.trace:
        for name in sorted(res["metrics"]):
            print(f"{args.workload} seed={args.seed}: {name} = {res['metrics'][name]:.6g} "
                  f"{units[name]}")
        absent = sorted(res["tracer"].absent_layers())
        print(f"absent layers (reported as 0): {', '.join(absent) or 'none'}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {name: {"value": float(value), "unit": units[name]}
                                  for name, value in sorted(res["metrics"].items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
