"""Run configuration: defaults, canonical text, hashing, load/override rules."""

import inspect

import pytest

from scatterkit import config
from scatterkit.annotio import run_dog, run_skaa
from scatterkit.chipio import write_text_atomic
from scatterkit.config import (RunConfig, canonical_text, config_hash,
                               emit_manifest, load_config)
from scatterkit.decouple import DecoupleParams
from scatterkit.errors import BadConfigField
from scatterkit.keypoints import DEFAULT_K
from scatterkit.spectral import DEFAULT_NBAR, DEFAULT_SIDELOBE_DB

FLOAT_KEYS = sorted(key for key, (_, _, typ) in config._FIELDS.items() if typ is float)


def test_defaults_match_reference_parameter_set():
    cfg = RunConfig()
    assert cfg.decouple.tau_db == -3.0
    assert cfg.decouple.eps == 1e-6
    assert cfg.decouple.n_max == 20
    assert cfg.keypoint_k == 9
    assert cfg.supervision.sigma == 1.0
    assert cfg.dog.sigma1 == 1.0
    assert cfg.dog.sigma2 == 1.6
    assert cfg.dog.threshold == 5.0
    assert cfg.dog.top_n == 30


def test_canonical_text_is_sorted_and_stable():
    text = canonical_text(RunConfig())
    lines = text.strip().splitlines()
    keys = [ln.split(" = ")[0] for ln in lines]
    assert keys == sorted(keys)
    assert "decouple.tau_db = -3.0" in lines
    assert "decouple.eps = 1e-06" in lines  # repr() of the float
    assert "keypoint_k = 9" in lines
    assert text == canonical_text(RunConfig())


def test_default_canonical_text_and_hash_are_pinned():
    # a change here changes every manifest's config hash
    assert canonical_text(RunConfig()) == (
        "decouple.eps = 1e-06\n"
        "decouple.grow_floor_db = -20.0\n"
        "decouple.min_peak_ratio = 0.01778279410038923\n"
        "decouple.n_max = 20\n"
        "decouple.tau_db = -3.0\n"
        "dog.sigma1 = 1.0\n"
        "dog.sigma2 = 1.6\n"
        "dog.threshold = 5.0\n"
        "dog.top_n = 30\n"
        "keypoint_k = 9\n"
        "master_seed = 0\n"
        "pool = max\n"
        "supervision.levels = 4\n"
        "supervision.sigma = 1.0\n"
        "window.nbar = 4\n"
        "window.sidelobe_db = -35.0\n")
    assert config_hash(RunConfig()) == \
        "bde4ada00e905ed03f125007c39caa0656bf546290a4d9f7bb1a24c072e35f1d"


def test_default_loop_stop_is_the_window_sidelobe_level():
    # a residual peak under the window's sidelobes may be a sidelobe itself
    assert DecoupleParams().min_peak_ratio == 10 ** (DEFAULT_SIDELOBE_DB / 20)
    assert RunConfig().decouple.min_peak_ratio == 10 ** (DEFAULT_SIDELOBE_DB / 20)
    assert load_config() == RunConfig()


def test_loaded_loop_stop_follows_the_configured_window(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("window.sidelobe_db = -45.0\n")
    assert load_config(path).decouple.min_peak_ratio == 10 ** (-45.0 / 20)
    assert load_config(overrides={"window.sidelobe_db": -30.0}) \
        .decouple.min_peak_ratio == 10 ** (-30.0 / 20)
    # an explicit ratio wins, from the file or from the flags
    assert load_config(path, {"decouple.min_peak_ratio": 1e-3}) \
        .decouple.min_peak_ratio == 1e-3
    path.write_text("window.sidelobe_db = -45.0\ndecouple.min_peak_ratio = 0.0\n")
    assert load_config(path).decouple.min_peak_ratio == 0.0


def test_run_defaults_are_the_library_defaults():
    cfg = RunConfig()
    assert (cfg.keypoint_k, cfg.window_nbar, cfg.window_sidelobe_db) == \
        (DEFAULT_K, DEFAULT_NBAR, DEFAULT_SIDELOBE_DB)
    skaa = inspect.signature(run_skaa).parameters
    assert (skaa["k"].default, skaa["window_nbar"].default,
            skaa["window_sidelobe_db"].default) == (DEFAULT_K, DEFAULT_NBAR,
                                                    DEFAULT_SIDELOBE_DB)
    assert inspect.signature(run_dog).parameters["k"].default == DEFAULT_K


def test_config_hash_tracks_content():
    base = config_hash(RunConfig())
    assert len(base) == 64
    assert config_hash(RunConfig()) == base
    changed = load_config(overrides={"keypoint_k": 5})
    assert config_hash(changed) != base


def test_emit_then_load_round_trip(tmp_path):
    cfg = load_config(overrides={"decouple.tau_db": -4.5, "master_seed": 17,
                                 "pool": "avg"})
    path = tmp_path / "run.cfg"
    write_text_atomic(path, canonical_text(cfg))
    back = load_config(path)
    assert back == cfg
    assert canonical_text(back) == canonical_text(cfg)


def test_load_file_with_comments_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# tuned run\n"
        "decouple.n_max = 5   # fewer passes\n"
        "\n"
        "dog.threshold = 2.5\n")
    cfg = load_config(path)
    assert cfg.decouple.n_max == 5
    assert cfg.dog.threshold == 2.5
    assert cfg.keypoint_k == 9  # untouched default
    cfg2 = load_config(path, overrides={"decouple.n_max": 7})
    assert cfg2.decouple.n_max == 7  # override beats file


def test_load_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("decouple.n_maxx = 5\n")
    with pytest.raises(BadConfigField) as exc:
        load_config(path)
    assert exc.value.field_path == "decouple.n_maxx"
    with pytest.raises(BadConfigField):
        load_config(overrides={"nope": 1})


def test_load_rejects_unparseable_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("decouple.n_max = many\n")
    with pytest.raises(BadConfigField) as exc:
        load_config(path)
    assert "many" in str(exc.value)
    path.write_text("decouple.n_max\n")
    with pytest.raises(BadConfigField):
        load_config(path)


@pytest.mark.parametrize("text, field", [
    ("keypoint_k = 4\ngarbage\n", "line 2"),
    ("decouple.n_maxx = 5\n", "decouple.n_maxx"),
    ("keypoint_k = four\n", "keypoint_k"),
    ("supervision.loss_weight = 1.0\n", "supervision.loss_weight"),
], ids=["no-equals", "unknown-key", "unparseable", "retired-key"])
def test_load_line_errors_name_the_file(tmp_path, text, field):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(BadConfigField) as exc:
        load_config(path)
    assert exc.value.field_path == field
    assert str(exc.value).startswith(f"{path}: bad config field '{field}'")


def test_override_errors_keep_their_messages():
    with pytest.raises(BadConfigField) as exc:
        load_config(overrides={"nope": 1})
    assert str(exc.value) == "bad config field 'nope': unknown configuration field"


@pytest.mark.parametrize("text", ["decouple.n_max = 5  # \u00b5s budget\n",
                                  "pool = m\u00e4x\n"])
def test_load_rejects_non_ascii_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(BadConfigField) as exc:
        load_config(path)
    assert exc.value.field_path == str(path)
    assert str(path) in str(exc.value)


def test_load_rejects_invalid_combination(tmp_path):
    with pytest.raises(BadConfigField) as exc:
        load_config(overrides={"decouple.tau_db": 1.0})
    assert exc.value.field_path == "(validation)"
    with pytest.raises(BadConfigField):
        load_config(overrides={"pool": "median"})


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(keypoint_k=0)
    with pytest.raises(ValueError):
        RunConfig(pool="sum")


def test_manifest_contents(tmp_path):
    cfg = RunConfig()
    path = tmp_path / "run-manifest.txt"
    emit_manifest(cfg, {"annotate": 12.345, "io": 1.0}, path)
    text = path.read_text()
    assert f"config_sha256 = {config_hash(cfg)}" in text
    assert "master_seed = 0" in text
    assert "timing_ms.annotate = 12.345" in text
    assert "timing_ms.io = 1.000" in text
    assert "python = " in text and "numpy = " in text
    assert "input." not in text
    emit_manifest(cfg, {}, path, inputs={"dim": 32, "amp_range": "0.5:1.5"})
    assert path.read_text().splitlines()[2:4] == [
        "input.amp_range = 0.5:1.5", "input.dim = 32"]


def test_every_float_key_is_listed():
    assert FLOAT_KEYS == [
        "decouple.eps", "decouple.grow_floor_db", "decouple.min_peak_ratio",
        "decouple.tau_db", "dog.sigma1", "dog.sigma2", "dog.threshold",
        "supervision.sigma", "window.sidelobe_db"]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_load_rejects_non_finite_float(tmp_path, key, text):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {text}\n")
    with pytest.raises(BadConfigField) as exc:
        load_config(path)
    assert exc.value.field_path == "(validation)"
    assert "finite" in str(exc.value)
    with pytest.raises(BadConfigField):
        load_config(overrides={key: float(text)})
