import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundscapekit._table import write_json
from soundscapekit.config import RunConfig, dump_threshold_fragment, load_threshold_fragment
from soundscapekit.decision import ThresholdPolicy
from soundscapekit.errors import ConfigError
from soundscapekit.labels import ANTHROPOPHONY, BIOPHONY, CLASSES, GEOPHONY
from soundscapekit.synthmix import DEFAULT_COUNT_PMFS


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


def test_defaults_are_a_fixed_point():
    assert RunConfig.from_dict({}) == RunConfig()
    assert RunConfig.from_dict(RunConfig().to_dict()) == RunConfig()


def test_formats_config_block_is_the_schema():
    """The Config JSON block in FORMATS.md is RunConfig().to_dict(), key order and number types included."""
    text = (Path(__file__).parents[1] / "FORMATS.md").read_text()
    block = text.split("## Config JSON", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    assert json.dumps(json.loads(block)) == json.dumps(RunConfig().to_dict())


@pytest.mark.parametrize(
    "data, message",
    [
        ({"seed": 1.7}, "invalid configuration: seed must be an integer, got 1.7"),
        ({"seed": 1e5}, "invalid configuration: seed must be an integer, got 100000.0"),
        ({"seed": "7"}, "invalid configuration: seed must be an integer, got '7'"),
        ({"seed": -1}, "invalid configuration: seed must be >= 0, got -1"),
        ({"bootstrap": {"resamples": 10.9}}, "invalid configuration: bootstrap resamples must be an integer, got 10.9"),
        ({"thresholds": {"mode": "global", "global": 0.5, "counts": {"biophony": 2.9}}},
         "invalid threshold policy: thresholds counts biophony must be an integer, got 2.9"),
        ({"thresholds": {"mode": "global", "global": True}},
         "invalid threshold policy: thresholds global must be a finite number, got True"),
        ({"thresholds": {"global": 0.5}}, "invalid threshold policy: thresholds mode must be a string, got None"),
        ({"recording_duration_s": True}, "invalid configuration: recording_duration_s must be a finite number, got True"),
        ({"recording_duration_s": "60"}, "invalid configuration: recording_duration_s must be a finite number, got '60'"),
        ({"bootstrap": {"confidence": "0.9"}},
         "invalid configuration: bootstrap confidence must be a finite number, got '0.9'"),
        ({"pda": {"geophony": "0.2"}}, "invalid configuration: pda geophony must be a finite number or null, got '0.2'"),
        ({"window": {"window_len_s": "10", "step_s": 10}},
         "invalid configuration: window window_len_s must be a finite number, got '10'"),
        ({"pda_measure": None}, "invalid configuration: pda_measure must be a string, got None"),
        ({"indices": {"ndsi_anthro_hz": [1000.0, True]}},
         "invalid configuration: indices ndsi_anthro_hz must be a list of 2 numbers, got [1000.0, True]"),
    ],
)
def test_values_of_another_json_type_rejected_on_load(tmp_path, data, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as err:
        RunConfig.load(p)
    assert str(err.value) == f"{p}: {message}"


PER_CLASS = {ANTHROPOPHONY: 0.5, BIOPHONY: 0.5, GEOPHONY: 0.5}


@READERS
@pytest.mark.parametrize(
    "thresholds, message",
    [
        ({"mode": "global", "global": 0.5, "per_class": {BIOPHONY: 0.9}}, "unknown key 'per_class' in thresholds"),
        ({"mode": "per-class", "global": 0.5, "per_class": PER_CLASS}, "unknown key 'global' in thresholds"),
        ({"mode": "per-class", "per_class": {**PER_CLASS, "birds": 0.3}}, "unknown key 'birds' in thresholds per_class"),
        ({"mode": "global", "global": 0.5, "counts": {"birds": 2}}, "unknown key 'birds' in thresholds counts"),
        ({"mode": "global", "global": 0.5, "counts": None}, "thresholds counts must be an object, got None"),
    ],
)
def test_thresholds_hold_only_the_keys_of_their_mode(tmp_path, read, thresholds, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"thresholds": thresholds}))
    with pytest.raises(ConfigError) as err:
        read(p)
    assert str(err.value) == f"{p}: invalid threshold policy: {message}"


@pytest.mark.parametrize(
    "pmfs, message",
    [
        ({"1": {"1": -0.5, "2": 1.0}}, "mixer count_pmfs 1 must be probabilities >= 0 with a positive sum, "
                                       "got {'1': -0.5, '2': 1.0}"),
        ({"2": {"1": 0.0, "3": 0}}, "mixer count_pmfs 2 must be probabilities >= 0 with a positive sum, "
                                    "got {'1': 0.0, '3': 0}"),
        ({"1": {}}, "mixer count_pmfs 1 must be probabilities >= 0 with a positive sum, got {}"),
        ({"3": {"3": 1.0}}, "unknown key '3' in mixer count_pmfs 3"),
        ({"4": {"1": 1.0}}, "unknown key '4' in mixer count_pmfs"),
        ({"1": {"2": "1"}}, "mixer count_pmfs 1 2 must be a finite number, got '1'"),
    ],
)
def test_bad_count_pmfs_rejected_on_load(tmp_path, pmfs, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mixer": {"count_pmfs": pmfs}}))
    with pytest.raises(ConfigError) as err:
        RunConfig.load(p)
    assert str(err.value) == f"{p}: invalid configuration: {message}"


def test_each_given_count_pmf_replaces_its_default_whole():
    cfg = RunConfig.from_dict({"mixer": {"count_pmfs": {"1": {"1": 1.0}, "3": {"2": 1}}}})
    assert cfg.mixer_count_pmfs == {1: {1: 1.0}, 2: DEFAULT_COUNT_PMFS[2], 3: {2: 1}}


def _leaves(node, path=()):
    """(path, default) for every value of node that is not an object."""
    if not isinstance(node, dict):
        yield path, node
        return
    for key, value in node.items():
        yield from _leaves(value, (*path, key))


def _set(config: dict, path, value) -> dict:
    node = config
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return config


LEAVES = list(_leaves(RunConfig().to_dict()))
NUMBERS = st.integers(-10**6, 10**6) | st.floats(-1e6, 1e6)


def _other_json_type(default):
    """JSON values whose type is not the type default has in the schema."""
    others = {
        "bool": st.booleans(),
        "string": st.text(max_size=4),
        "null": st.none(),
        "number": NUMBERS,
        "list": st.lists(NUMBERS, max_size=3),
        "object": st.dictionaries(st.text(max_size=3), NUMBERS, max_size=2),
    }
    if isinstance(default, str):
        del others["string"]
    elif isinstance(default, list):
        n = len(default)
        others["list"] = st.lists(NUMBERS, max_size=n + 1).filter(lambda v: len(v) != n) | st.lists(
            st.booleans() | st.text(max_size=2) | st.none(), min_size=n, max_size=n)
    elif isinstance(default, int):
        others["number"] = st.floats(-1e6, 1e6)  # a float, even 1024.0
    else:
        del others["number"]
        if default is None:
            del others["null"]
    return st.one_of(*others.values())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_leaf_rejects_a_value_of_another_json_type(data):
    path, default = data.draw(st.sampled_from(LEAVES))
    bad = data.draw(_other_json_type(default))
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(_set(RunConfig().to_dict(), path, bad))
    message = str(err.value)
    assert "\n" not in message
    assert f"{' '.join(path)} must be " in message


#: Per leaf outside thresholds, well-typed values that also pass the domain rules with any other such values.
VALID = {
    ("seed",): st.integers(0, 2**63),
    ("recording_duration_s",): st.integers(1, 3600) | st.floats(0.5, 3600.0),
    ("window", "window_len_s"): st.floats(10.0, 60.0),
    ("window", "step_s"): st.integers(1, 10) | st.floats(0.5, 10.0),
    **{("pda", c): st.none() | st.floats(0.01, 0.99) for c in CLASSES},
    ("pda_measure",): st.sampled_from(["sum", "longest-segment"]),
    ("indices", "stft_window"): st.integers(320, 4096),
    ("indices", "stft_hop"): st.integers(1, 320),
    ("indices", "target_rate_hz"): st.integers(20000, 96000),
    ("indices", "aci_chunk_s"): st.none() | st.integers(1, 60) | st.floats(0.5, 60.0),
    ("indices", "adi_band_width_hz"): st.sampled_from([500, 1000.0, 2000.0]),
    ("indices", "adi_max_freq_hz"): st.sampled_from([8000.0, 10000]),
    ("indices", "adi_db_threshold"): st.integers(-90, 0) | st.floats(-90.0, 0.0),
    ("indices", "ndsi_anthro_hz"): st.lists(st.floats(0.0, 900.0), min_size=1, max_size=1).map(lambda lo: [*lo, 1500.0]),
    ("indices", "ndsi_bio_hz"): st.tuples(st.floats(2000.0, 4000.0), st.integers(5000, 10000)).map(list),
    **{path: st.integers(1, 3) | st.floats(0.01, 1.0) for path, _ in LEAVES if path[:2] == ("mixer", "count_pmfs")},
    ("mixer", "normalization"): st.sampled_from(["peak", "rms"]),
    ("bootstrap", "resamples"): st.integers(1, 10**6),
    ("bootstrap", "confidence"): st.floats(0.01, 0.99),
}
COUNTS = st.dictionaries(st.sampled_from(CLASSES), st.integers(1, 50))
THRESHOLDS = st.fixed_dictionaries(
    {"mode": st.just("global"), "global": st.integers(0, 1) | st.floats(0.0, 1.0)}, optional={"counts": COUNTS}
) | st.fixed_dictionaries(
    {"mode": st.just("per-class"), "per_class": st.fixed_dictionaries({c: st.floats(0.0, 1.0) for c in CLASSES})},
    optional={"counts": COUNTS},
)


def test_valid_values_cover_every_leaf():
    assert set(VALID) == {path for path, _ in LEAVES if path[0] != "thresholds"}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_well_typed_partial_config_round_trips(data):
    paths = data.draw(st.lists(st.sampled_from(sorted(VALID)), unique=True))
    partial = {}
    for path in paths:
        _set(partial, path, data.draw(VALID[path]))
    thresholds = data.draw(st.none() | THRESHOLDS)
    if thresholds is not None:
        partial["thresholds"] = thresholds
    back = RunConfig.from_dict(json.loads(json.dumps(partial))).to_dict()
    for path, value in _leaves(partial):
        if path[0] != "thresholds":
            node = back
            for key in path:
                node = node[key]
            assert node == value
    if thresholds is not None:
        assert back["thresholds"] == thresholds
