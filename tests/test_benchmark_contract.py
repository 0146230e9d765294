"""The library API the benchmark pins.

`perfbench/` imports scatterkit names, generates its inputs through the
public API, calls `run_skaa` with keywords and runs CLI subcommands with
flags. A deletion or rename there does not fail a test of the library; it
fails the benchmark run. These tests read `perfbench/*.py` without changing
it and exercise each of those uses, so such a change fails here first.
"""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from scatterkit.annotio import DatasetIndex, index_dataset, run_skaa
from scatterkit.cli import _build_parser
from scatterkit.config import load_config

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
RUN_PY = PERFBENCH / "run.py"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _calls(path: Path, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(_tree(path))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_scatterkit_name_the_benchmark_imports_resolves():
    imports = [(path.name, node.module, alias.name)
               for path in sorted(PERFBENCH.glob("*.py"))
               for node in ast.walk(_tree(path))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "scatterkit"
               for alias in node.names]
    assert ("gen.py", "scatterkit", "FrequencyGrid") in imports
    missing = [f"{file}: from {module} import {name}" for file, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_generates_each_workload(gen, tmp_path, workload):
    ds = gen.generate(workload, 0, tmp_path / workload, fraction=0.5)
    if ds.kind == "eval":
        assert ds.shards and all(preds.is_file() for _, preds, _, _ in ds.shards)
    else:
        assert index_dataset(ds.images, ds.annots).entries
        assert ds.instance_truth


def test_run_skaa_takes_the_keywords_the_benchmark_passes(gen, tmp_path):
    cfg = load_config()
    kwargs = dict(master_seed=0, dec_params=cfg.decouple, k=cfg.keypoint_k,
                  window_nbar=cfg.window_nbar, window_sidelobe_db=cfg.window_sidelobe_db,
                  threads=2)
    passed = {kw.arg for call in _calls(RUN_PY, "run_skaa") for kw in call.keywords}
    assert "threads" in passed and passed <= set(kwargs)
    ds = gen.generate("scenes-multi", 0, tmp_path / "in", fraction=0.5)
    index = index_dataset(ds.images, ds.annots)
    summary = run_skaa(DatasetIndex(entries=index.entries[:1], root=index.root),
                       tmp_path / "out", **kwargs)
    assert summary.instances > 0
    assert (summary.failures, summary.failed_images) == (0, 0)


def test_each_cli_flag_the_benchmark_passes_exists():
    subparsers, = [a for a in _build_parser()._actions if a.dest == "command"]
    used = []
    for call in _calls(RUN_PY, "_cli"):
        words = [e.value for e in call.args[0].elts
                 if isinstance(e, ast.Constant) and isinstance(e.value, str)]
        used += [(words[0], w) for w in words[1:] if w.startswith("--")]
    assert ("annotate", "--threads") in used
    unknown = [(cmd, flag) for cmd, flag in used
               if flag not in subparsers.choices[cmd]._option_string_actions]
    assert unknown == []
