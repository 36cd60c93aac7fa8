import json
import re

import pytest

from soundscapekit._table import write_json
from soundscapekit.config import RunConfig, dump_threshold_fragment, load_threshold_fragment
from soundscapekit.decision import ThresholdPolicy
from soundscapekit.errors import ConfigError
from soundscapekit.labels import ANTHROPOPHONY, BIOPHONY, GEOPHONY


def test_defaults():
    cfg = RunConfig()
    assert cfg.window.window_len_s == 10.0
    assert cfg.thresholds.thresholds[BIOPHONY] == 0.5
    assert cfg.recording_duration_s == 60.0
    assert cfg.pda.fractions == {}


def test_round_trip(tmp_path):
    cfg = RunConfig()
    cfg.seed = 99
    cfg.threshold_mode = "per-class"
    cfg.thresholds = ThresholdPolicy(
        thresholds={ANTHROPOPHONY: 0.722, BIOPHONY: 0.920, GEOPHONY: 0.571},
        counts={ANTHROPOPHONY: 2, BIOPHONY: 5, GEOPHONY: 10},
    )
    cfg.pda = cfg.pda.__class__({ANTHROPOPHONY: 0.25, GEOPHONY: 0.25}, measure="longest-segment")
    cfg.mixer_normalization = "rms"
    p = tmp_path / "cfg.json"
    write_json(p, cfg.to_dict())
    back = RunConfig.load(p)
    assert back.seed == 99
    assert back.thresholds == cfg.thresholds
    assert back.pda.fractions[ANTHROPOPHONY] == 0.25
    assert back.pda.measure == "longest-segment"
    assert back.mixer_normalization == "rms"
    assert back.window == cfg.window
    assert back.to_dict() == cfg.to_dict()


def test_partial_config_uses_defaults(tmp_path):
    p = tmp_path / "partial.json"
    p.write_text('{"seed": 5, "window": {"window_len_s": 10.0, "step_s": 1.0}}')
    cfg = RunConfig.load(p)
    assert cfg.seed == 5
    assert cfg.window.step_s == 1.0
    assert cfg.thresholds.thresholds[BIOPHONY] == 0.5


def test_invalid_threshold_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"thresholds": {"mode": "global", "global": 1.5}}')
    with pytest.raises(ConfigError):
        RunConfig.load(p)


def test_invalid_json(tmp_path):
    p = tmp_path / "nope.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.load(p)


def test_invalid_pda_fraction(tmp_path):
    p = tmp_path / "pda.json"
    p.write_text('{"pda": {"geophony": 2.0}}')
    with pytest.raises(ConfigError):
        RunConfig.load(p)


FRAGMENT_COUNTS = pytest.mark.parametrize(
    "counts", [None, {BIOPHONY: 2}, {ANTHROPOPHONY: 1, BIOPHONY: 5, GEOPHONY: 10}], ids=["none", "one", "all"]
)


@FRAGMENT_COUNTS
def test_threshold_fragment_round_trip(tmp_path, counts):
    policy = ThresholdPolicy(thresholds={ANTHROPOPHONY: 0.722, BIOPHONY: 0.92, GEOPHONY: 0.571}, counts=counts)
    p = tmp_path / "thresholds.json"
    dump_threshold_fragment("per-class", policy, p)
    mode, back = load_threshold_fragment(p)
    assert mode == "per-class"
    assert back == policy
    data = json.loads(p.read_text())
    assert data["thresholds"]["per_class"][BIOPHONY] == 0.92
    assert data["thresholds"].get("counts") == counts


@FRAGMENT_COUNTS
def test_global_fragment_round_trip(tmp_path, counts):
    policy = ThresholdPolicy.global_threshold(0.5, counts=counts)
    p = tmp_path / "g.json"
    dump_threshold_fragment("global", policy, p)
    mode, back = load_threshold_fragment(p)
    assert mode == "global"
    assert back == policy
    assert json.loads(p.read_text())["thresholds"].get("counts") == counts


@pytest.mark.parametrize("bootstrap", [{"resamples": 0}, {"confidence": 1.7}, {"confidence": 0.0}, {"confidence": 1.0}])
def test_invalid_bootstrap_rejected_on_load(bootstrap):
    with pytest.raises(ConfigError, match="bootstrap"):
        RunConfig.from_dict({"bootstrap": bootstrap})


@pytest.mark.parametrize(
    "indices",
    [
        {"stft_window": "big"},
        {"stft_window": 1024.0},
        {"stft_window": 0},
        {"stft_hop": True},
        {"stft_hop": -320},
        {"target_rate_hz": 32000.5},
        {"stft_window": 256},  # default hop 320 exceeds it
        {"stft_window": 512, "stft_hop": 513},
        {"aci_chunk_s": "5"},
        {"aci_chunk_s": float("nan")},
        {"adi_band_width_hz": float("inf")},
        {"adi_max_freq_hz": None},
        {"adi_db_threshold": [-50]},
        {"ndsi_anthro_hz": [1000.0]},
        {"ndsi_bio_hz": [2000.0, 8000.0, 9000.0]},
        {"ndsi_bio_hz": ["2000", 8000.0]},
        {"ndsi_bio_hz": "2000-8000"},
        "not an object",
        {"stft_windw": 1024},
    ],
)
def test_invalid_indices_rejected_on_load(indices):
    with pytest.raises(ConfigError, match="indices"):
        RunConfig.from_dict({"indices": indices})


@pytest.mark.parametrize(
    "indices, message",
    [
        ({"adi_band_width_hz": 3000}, "band width 3000 must split (0, 10000.0] into >= 2 bands"),
        ({"adi_band_width_hz": 10000}, "band width 10000 must split"),
        ({"adi_band_width_hz": 0}, "band width 0 must split"),
        ({"adi_max_freq_hz": 20000.0}, "max_freq 20000.0 Hz exceeds Nyquist 16000.0 Hz"),
        ({"target_rate_hz": 16000}, "max_freq 10000.0 Hz exceeds Nyquist 8000.0 Hz"),
        ({"ndsi_bio_hz": [2000.0, 17000.0]}, "bio band [2000.0, 17000.0) invalid for Nyquist 16000.0 Hz"),
        ({"ndsi_anthro_hz": [-1.0, 1000.0]}, "anthro band [-1.0, 1000.0) invalid"),
        ({"ndsi_anthro_hz": [2000.0, 1000.0]}, "anthro band [2000.0, 1000.0) invalid"),
        ({"ndsi_anthro_hz": [1000.0, 3000.0]}, "bands (1000.0, 3000.0) and (2000.0, 8000.0) overlap"),
    ],
)
def test_invalid_bands_rejected_on_load(indices, message):
    """The band rules of indices.check_bands, against the Nyquist of target_rate_hz, at load time."""
    with pytest.raises(ConfigError, match=re.escape(f"invalid configuration: {message}")):
        RunConfig.from_dict({"indices": indices})


def test_valid_indices_keep_their_json_values():
    idx = {"stft_window": 512, "stft_hop": 512, "target_rate_hz": 16000, "aci_chunk_s": 5,
           "adi_band_width_hz": 500, "adi_max_freq_hz": 5000.0, "adi_db_threshold": -40,
           "ndsi_anthro_hz": [500, 1500], "ndsi_bio_hz": [1500.0, 6000.0]}
    assert RunConfig.from_dict({"indices": idx}).indices.to_dict() == idx


def test_load_errors_name_the_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"bootstrap": {"confidence": 1.7}}))
    with pytest.raises(ConfigError) as err:
        RunConfig.load(p)
    assert str(err.value) == f"{p}: invalid configuration: bootstrap confidence must be in (0, 1), got 1.7"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: invalid configuration: expected a JSON object"):
        RunConfig.load(p)


@pytest.mark.parametrize(
    "data, key",
    [
        ({"windw": {"window_len_s": 10.0, "step_s": 10.0}}, "'windw'"),
        ({"window": {"window_len_s": 10.0, "step_s": 10.0, "stp_s": 1.0}}, "'stp_s' in window"),
        ({"indices": {"stft_windw": 2048}}, "'stft_windw' in indices"),
        ({"mixer": {"normalisation": "rms"}}, "'normalisation' in mixer"),
        ({"bootstrap": {"resample": 10}}, "'resample' in bootstrap"),
        ({"thresholds": {"mode": "global", "global": 0.5, "count": {"biophony": 2}}}, "'count' in thresholds"),
        ({"pda": {"birds": 0.1}}, "'birds' in pda"),
    ],
)
def test_unknown_keys_rejected_on_load(tmp_path, data, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: .*unknown key {re.escape(key)}$"):
        RunConfig.load(p)


@pytest.mark.parametrize("indices", [{"target_rate_hz": 20000}, {"adi_max_freq_hz": 16000, "adi_band_width_hz": 4000}])
def test_bands_at_nyquist_accepted(indices):
    RunConfig.from_dict({"indices": indices})


@pytest.mark.parametrize(
    "data",
    [
        {"window": [10.0, 10.0]},
        {"pda": [0.1]},
        {"mixer": {"count_pmfs": [0.5, 0.5]}},
        {"mixer": {"count_pmfs": {"1": [1.0]}}},
        {"thresholds": {"mode": "per-class", "per_class": [0.5, 0.5, 0.5]}},
        {"thresholds": {"mode": "global", "global": 0.5, "counts": [2]}},
    ],
)
def test_sections_that_are_not_objects_rejected(data):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


READERS = pytest.mark.parametrize("read", [RunConfig.load, load_threshold_fragment], ids=["config", "fragment"])


@READERS
def test_non_utf8_json_is_a_config_error(tmp_path, read):
    p = tmp_path / "bad.json"
    p.write_bytes(b'{"seed": 1, "x": "\xff"}')
    with pytest.raises(ConfigError) as err:
        read(p)
    assert str(err.value).startswith(f"{p}: not valid JSON (")
    assert str(err.value).count(str(p)) == 1


@READERS
@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_json_numbers_rejected(tmp_path, read, constant):
    p = tmp_path / "cfg.json"
    p.write_text(f'{{"recording_duration_s": {constant}, "thresholds": {{"mode": "global", "global": {constant}}}}}')
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: not valid JSON \\({re.escape(constant)} is not a finite"):
        read(p)


@READERS
def test_integer_too_large_for_a_float_rejected(tmp_path, read):
    p = tmp_path / "cfg.json"
    big = "1" + "0" * 400
    p.write_text(f'{{"recording_duration_s": {big}, "thresholds": {{"mode": "global", "global": {big}}}}}')
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: invalid .*int too large to convert to float"):
        read(p)
