"""Run configuration: defaults, flat-text load, hashing, manifests.

The canonical form is a key-sorted ``key = value`` document; the config hash
is the SHA-256 of those bytes. Defaults reproduce the reference parameter
set: tau = -3 dB, eps = 1e-6, n_max = 20, k = 9, sigma = 1, and DoG
(1.0, 1.6, |D| > 5, top 30).
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .chipio import read_text_lines, write_atomic
from .decouple import DecoupleParams
from .errors import BadConfigField, InvalidWindowParams
from .keypoints import DEFAULT_K, DogParams
from .raster import _require_index
from .spectral import DEFAULT_NBAR, DEFAULT_SIDELOBE_DB, _check_window_params
from .supervision import SupervisionParams

MANIFEST_NAME = "run-manifest.txt"


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline in one immutable bundle."""

    decouple: DecoupleParams = field(default_factory=DecoupleParams)
    dog: DogParams = field(default_factory=DogParams)
    supervision: SupervisionParams = field(default_factory=SupervisionParams)
    keypoint_k: int = DEFAULT_K
    pool: str = "max"
    window_nbar: int = DEFAULT_NBAR
    window_sidelobe_db: float = DEFAULT_SIDELOBE_DB
    master_seed: int = 0

    def __post_init__(self):
        _require_index(keypoint_k=self.keypoint_k)
        if self.keypoint_k < 1:
            raise ValueError(f"keypoint_k must be >= 1, got {self.keypoint_k}")
        if self.pool not in ("max", "avg"):
            raise ValueError(f"pool must be 'max' or 'avg', got {self.pool!r}")
        _check_window_params(self.window_nbar, self.window_sidelobe_db)


# flat key -> (section attr or None, field name, type)
_FIELDS: dict[str, tuple[str | None, str, type]] = {
    "decouple.tau_db": ("decouple", "tau_db", float),
    "decouple.eps": ("decouple", "eps", float),
    "decouple.n_max": ("decouple", "n_max", int),
    "decouple.grow_floor_db": ("decouple", "grow_floor_db", float),
    "decouple.min_peak_ratio": ("decouple", "min_peak_ratio", float),
    "dog.sigma1": ("dog", "sigma1", float),
    "dog.sigma2": ("dog", "sigma2", float),
    "dog.threshold": ("dog", "threshold", float),
    "dog.top_n": ("dog", "top_n", int),
    "supervision.sigma": ("supervision", "sigma", float),
    "supervision.levels": ("supervision", "levels", int),
    "keypoint_k": (None, "keypoint_k", int),
    "pool": (None, "pool", str),
    "window.nbar": (None, "window_nbar", int),
    "window.sidelobe_db": (None, "window_sidelobe_db", float),
    "master_seed": (None, "master_seed", int),
}


def _get(config: RunConfig, key: str):
    section, name, _ = _FIELDS[key]
    obj = getattr(config, section) if section else config
    return getattr(obj, name)


def _canon_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def canonical_text(config: RunConfig) -> str:
    """Key-sorted flat rendering; identical configs render identically."""
    lines = [f"{key} = {_canon_value(_get(config, key))}" for key in sorted(_FIELDS)]
    return "\n".join(lines) + "\n"


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(canonical_text(config).encode("ascii")).hexdigest()


def load_config(path: str | Path | None = None,
                overrides: dict[str, object] | None = None) -> RunConfig:
    """Defaults, then file values, then explicit overrides (flat keys).

    `decouple.min_peak_ratio`, when neither the file nor the overrides set
    it, follows `window.sidelobe_db`: the loop stops at the sidelobe level
    of the window the chips are formed with.
    """
    return _with_overrides(_file_values(path), overrides)


def _file_values(path: str | Path | None) -> dict[str, object]:
    """The values the config file at `path` sets, by flat key; none for no
    file. The file is read once (`read_text_lines`), so a pipe or FIFO
    loads as a regular file does."""
    values: dict[str, object] = {}
    if path is None:
        return values
    try:
        lines = read_text_lines(path)
    except UnicodeDecodeError:
        raise BadConfigField(str(path), "not ASCII text") from None
    for line_no, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadConfigField(f"line {line_no}", f"expected 'key = value': {raw!r}",
                                 path=str(path))
        key, _, text = (t.strip() for t in line.partition("="))
        values[key] = _coerce(key, text, str(path))
    return values


def _with_overrides(file_values: dict[str, object],
                    overrides: dict[str, object] | None = None) -> RunConfig:
    """The configuration of `_file_values`' result with overrides on top."""
    values = {key: _get(RunConfig(), key) for key in _FIELDS}
    values["decouple.min_peak_ratio"] = None
    values.update(file_values)
    for key, val in (overrides or {}).items():
        if key not in _FIELDS:
            raise BadConfigField(key, "unknown configuration field")
        values[key] = val
    return _build(values)


def _coerce(key: str, text: str, path: str):
    """The value of one `key = text` line of the config file at `path`."""
    if key not in _FIELDS:
        raise BadConfigField(key, "unknown configuration field", path=path)
    typ = _FIELDS[key][2]
    try:
        return typ(text)
    except ValueError:
        raise BadConfigField(key, f"cannot parse {text!r} as {typ.__name__}",
                             path=path) from None


def _build(values: dict) -> RunConfig:
    def section(name):
        return {fname: values[key] for key, (sec, fname, _) in _FIELDS.items()
                if sec == name}

    top = {fname: values[key] for key, (sec, fname, _) in _FIELDS.items() if sec is None}
    try:
        _check_window_params(values["window.nbar"], values["window.sidelobe_db"])
        if values["decouple.min_peak_ratio"] is None:
            values["decouple.min_peak_ratio"] = 10 ** (values["window.sidelobe_db"] / 20)
        return RunConfig(decouple=DecoupleParams(**section("decouple")),
                         dog=DogParams(**section("dog")),
                         supervision=SupervisionParams(**section("supervision")),
                         **top)
    except (ValueError, InvalidWindowParams) as exc:
        raise BadConfigField("(validation)", str(exc)) from None


def emit_manifest(config: RunConfig, timings: dict[str, float],
                  path: str | Path, counts: dict[str, int] | None = None,
                  inputs: dict[str, object] | None = None) -> None:
    """Reproducibility record: config hash, seed, the command's own inputs,
    versions, counts, stage timings."""
    lines = [
        f"config_sha256 = {config_hash(config)}",
        f"master_seed = {config.master_seed}",
    ]
    for name in sorted(inputs or {}):
        lines.append(f"input.{name} = {inputs[name]}")
    lines += [
        f"python = {sys.version.split()[0]}",
        f"numpy = {np.__version__}",
    ]
    for name in sorted(counts or {}):
        lines.append(f"{name} = {counts[name]}")
    for stage in sorted(timings):
        lines.append(f"timing_ms.{stage} = {timings[stage]:.3f}")
    write_atomic(path, "\n".join(lines) + "\n")
