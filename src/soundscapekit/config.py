"""Run configuration: one JSON file drives every command.

Every embedded policy is validated on load, so schema mistakes surface
before any audio is touched. ``RunConfig()`` gives the documented defaults.
"""

import json
import math
from dataclasses import asdict, dataclass, field

from ._table import write_json
from .decision import PdaPolicy, ThresholdPolicy
from .errors import ConfigError
from .indices import (
    DEFAULT_ADI_BAND_WIDTH_HZ,
    DEFAULT_ADI_DB_THRESHOLD,
    DEFAULT_ADI_MAX_FREQ_HZ,
    DEFAULT_ANTHRO_BAND_HZ,
    DEFAULT_BIO_BAND_HZ,
    aci_chunk_frames,
    check_bands,
)
from .evaluation import DEFAULT_BOOTSTRAP_RESAMPLES, DEFAULT_CONFIDENCE, check_bootstrap
from .labels import CLASSES
from .scores import WindowSpec
from .synthmix import DEFAULT_COUNT_PMFS, NORMALIZATION_MODES, TARGET_RATE_HZ


@dataclass
class IndexParams:
    stft_window: int = 1024
    stft_hop: int = 320
    target_rate_hz: int = TARGET_RATE_HZ
    aci_chunk_s: float | None = None
    adi_band_width_hz: float = DEFAULT_ADI_BAND_WIDTH_HZ
    adi_max_freq_hz: float = DEFAULT_ADI_MAX_FREQ_HZ
    adi_db_threshold: float = DEFAULT_ADI_DB_THRESHOLD
    ndsi_anthro_hz: tuple = DEFAULT_ANTHRO_BAND_HZ
    ndsi_bio_hz: tuple = DEFAULT_BIO_BAND_HZ

    def to_dict(self) -> dict:
        return {**asdict(self), "ndsi_anthro_hz": list(self.ndsi_anthro_hz), "ndsi_bio_hz": list(self.ndsi_bio_hz)}


@dataclass
class RunConfig:
    seed: int = 0
    recording_duration_s: float = 60.0
    window: WindowSpec = field(default_factory=lambda: WindowSpec(10.0, 10.0))
    thresholds: ThresholdPolicy = field(default_factory=lambda: ThresholdPolicy.global_threshold(0.5))
    pda: PdaPolicy = field(default_factory=PdaPolicy)
    indices: IndexParams = field(default_factory=IndexParams)
    mixer_count_pmfs: dict = field(default_factory=lambda: {k: dict(v) for k, v in DEFAULT_COUNT_PMFS.items()})
    mixer_normalization: str = "peak"
    bootstrap_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES
    bootstrap_confidence: float = DEFAULT_CONFIDENCE

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "recording_duration_s": self.recording_duration_s,
            "window": {"window_len_s": self.window.window_len_s, "step_s": self.window.step_s},
            "thresholds": threshold_policy_to_dict(self.thresholds),
            "pda": {c: self.pda.fractions.get(c) for c in CLASSES},
            "pda_measure": self.pda.measure,
            "indices": self.indices.to_dict(),
            "mixer": {
                "count_pmfs": {str(k): {str(n): p for n, p in v.items()} for k, v in self.mixer_count_pmfs.items()},
                "normalization": self.mixer_normalization,
            },
            "bootstrap": {"resamples": self.bootstrap_resamples, "confidence": self.bootstrap_confidence},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The config data describes, with defaults for the keys it omits; to_dict() is its schema."""
        try:
            if not isinstance(data, dict):
                raise ValueError(f"expected a JSON object, got {type(data).__name__}")
            cfg = cls()
            defaults = cfg.to_dict()
            given = _checked({k: v for k, v in data.items() if k != "thresholds"}, defaults)
            # each section's defaults under its given keys; a given count_pmfs map keeps the pmfs it omits below
            d = {k: {**v, **given.get(k, {})} if isinstance(v, dict) else given.get(k, v) for k, v in defaults.items()}
            cfg.seed = d["seed"]
            if cfg.seed < 0:
                raise ValueError(f"seed must be >= 0, got {cfg.seed}")
            cfg.recording_duration_s = float(d["recording_duration_s"])
            if cfg.recording_duration_s <= 0:
                raise ValueError("recording_duration_s must be positive")
            cfg.window = WindowSpec(float(d["window"]["window_len_s"]), float(d["window"]["step_s"]))
            if "thresholds" in data:
                cfg.thresholds = parse_threshold_policy(data["thresholds"])
            cfg.pda = PdaPolicy({c: p for c, p in d["pda"].items() if p is not None}, measure=d["pda_measure"])
            idx = d["indices"]  # values keep their JSON types, as the indices CSV header echoes them
            for name in ("stft_window", "stft_hop", "target_rate_hz"):
                if idx[name] < 1:
                    raise ValueError(f"indices {name} must be >= 1, got {idx[name]}")
            if idx["stft_hop"] > idx["stft_window"]:
                raise ValueError(f"indices stft_hop {idx['stft_hop']} exceeds stft_window {idx['stft_window']}")
            cfg.indices = params = IndexParams(**{k: tuple(v) if isinstance(v, list) else v for k, v in idx.items()})
            check_bands(params.target_rate_hz / 2.0, (params.adi_band_width_hz, params.adi_max_freq_hz),
                        (params.ndsi_anthro_hz, params.ndsi_bio_hz))
            if params.aci_chunk_s is not None:
                aci_chunk_frames(params.aci_chunk_s, params.stft_hop / params.target_rate_hz)
            for count, pmf in d["mixer"]["count_pmfs"].items():
                if any(p < 0 for p in pmf.values()) or not sum(pmf.values()) > 0:
                    raise ValueError(f"mixer count_pmfs {count} must be probabilities >= 0 with a positive sum, got {pmf}")
                cfg.mixer_count_pmfs[int(count)] = {int(n): p for n, p in pmf.items()}
            cfg.mixer_normalization = d["mixer"]["normalization"]
            if cfg.mixer_normalization not in NORMALIZATION_MODES:
                raise ValueError(f"unknown mixer normalization {cfg.mixer_normalization!r}")
            cfg.bootstrap_resamples = d["bootstrap"]["resamples"]
            cfg.bootstrap_confidence = d["bootstrap"]["confidence"]
            check_bootstrap(cfg.bootstrap_resamples, cfg.bootstrap_confidence)
            return cfg
        except ConfigError:
            raise
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            return cls.from_dict(_read_json(path))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def _read_json(path):
    """The JSON value in path, which must be UTF-8 with only finite numbers."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (RecursionError, ValueError) as exc:  # also JSONDecodeError, UnicodeDecodeError and a document too deep
        raise ConfigError(f"not valid JSON ({exc})") from exc


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _checked(value, default, path=""):
    """value, once it has the JSON type of default, its counterpart in RunConfig().to_dict().

    An object may hold only default's keys, each checked in turn. Otherwise
    value must be an integer (not a float or a bool), a finite number, a
    finite number or null, a string, or a list of as many finite numbers,
    as default is an integer, a float, null, a string or a list.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{path} must be an object, got {value!r}")
        for key, item in value.items():
            if key not in default:
                raise ValueError(f"unknown key {key!r}" + (f" in {path}" if path else ""))
            _checked(item, default[key], f"{path} {key}".lstrip())
        return value
    try:
        if _same_type(value, default):
            return value
        got = f", got {value!r}"
    except OverflowError as exc:  # an integer too large for a float
        got = f": {exc}"
    kind = ("an integer" if isinstance(default, int) else "a string" if isinstance(default, str)
            else f"a list of {len(default)} numbers" if isinstance(default, list)
            else "a finite number" + (" or null" if default is None else ""))
    raise ValueError(f"{path} must be {kind}{got}")


def _same_type(value, default) -> bool:
    if isinstance(default, list):
        return isinstance(value, list) and len(value) == len(default) and all(map(_same_type, value, default))
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value is None and default is None
    return isinstance(value, int) if isinstance(default, int) else math.isfinite(value)


def parse_threshold_policy(data: dict) -> ThresholdPolicy:
    """Parse the thresholds section (also emitted standalone by the tune command).

    Its schema (see _checked) is the JSON form, in its mode, of a policy with counts.
    """
    try:
        if not isinstance(data, dict):
            raise ValueError(f"thresholds must be an object, got {data!r}")
        mode = _checked(data.get("mode"), "", "thresholds mode")
        with_counts = ThresholdPolicy(dict.fromkeys(CLASSES, 0.5), dict.fromkeys(CLASSES, 1), mode)
        _checked(data, threshold_policy_to_dict(with_counts), "thresholds")
        key = "global" if mode == "global" else "per_class"
        if key not in data:
            raise ValueError(f"missing required key {key!r} in thresholds")
        thresholds = dict.fromkeys(CLASSES, data[key]) if mode == "global" else data[key]
        return ThresholdPolicy(thresholds, data.get("counts"), mode)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid threshold policy: {exc}") from exc


def threshold_policy_to_dict(policy: ThresholdPolicy) -> dict:
    """The thresholds section for policy, in its mode; inverse of parse_threshold_policy."""
    data: dict = {"mode": policy.mode}
    if policy.mode == "global":
        data["global"] = policy.thresholds[CLASSES[0]]
    else:
        data["per_class"] = dict(policy.thresholds)
    if policy.counts is not None:
        data["counts"] = dict(policy.counts)
    return data


def load_threshold_fragment(path) -> ThresholdPolicy:
    """Read a thresholds-only JSON fragment, as written by the tune command."""
    try:
        data = _read_json(path)
        if not isinstance(data, dict) or "thresholds" not in data:
            raise ConfigError("missing 'thresholds' section")
        policy = parse_threshold_policy(data["thresholds"])
        for key in data:
            if key != "thresholds":
                raise ConfigError(f"unknown key {key!r}")
        return policy
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def dump_threshold_fragment(policy: ThresholdPolicy, path) -> None:
    write_json(path, {"thresholds": threshold_policy_to_dict(policy)})
