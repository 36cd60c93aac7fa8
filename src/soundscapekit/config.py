"""Run configuration: one JSON file drives every command.

Every embedded policy is validated on load, so schema mistakes surface
before any audio is touched. ``RunConfig()`` gives the documented defaults.
"""

import json
import math
from dataclasses import dataclass, field

from ._table import write_json
from .decision import PdaPolicy, ThresholdPolicy
from .errors import ConfigError
from .indices import (
    DEFAULT_ADI_BAND_WIDTH_HZ,
    DEFAULT_ADI_DB_THRESHOLD,
    DEFAULT_ADI_MAX_FREQ_HZ,
    DEFAULT_ANTHRO_BAND_HZ,
    DEFAULT_BIO_BAND_HZ,
    check_bands,
)
from .evaluation import DEFAULT_BOOTSTRAP_RESAMPLES, DEFAULT_CONFIDENCE
from .labels import CLASSES
from .scores import WindowSpec
from .synthmix import DEFAULT_COUNT_PMFS, TARGET_RATE_HZ


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
        return {
            "stft_window": self.stft_window,
            "stft_hop": self.stft_hop,
            "target_rate_hz": self.target_rate_hz,
            "aci_chunk_s": self.aci_chunk_s,
            "adi_band_width_hz": self.adi_band_width_hz,
            "adi_max_freq_hz": self.adi_max_freq_hz,
            "adi_db_threshold": self.adi_db_threshold,
            "ndsi_anthro_hz": list(self.ndsi_anthro_hz),
            "ndsi_bio_hz": list(self.ndsi_bio_hz),
        }


@dataclass
class RunConfig:
    seed: int = 0
    recording_duration_s: float = 60.0
    window: WindowSpec = field(default_factory=lambda: WindowSpec(10.0, 10.0))
    threshold_mode: str = "global"
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
            "thresholds": threshold_policy_to_dict(self.threshold_mode, self.thresholds),
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
        try:
            if not isinstance(data, dict):
                raise ValueError(f"expected a JSON object, got {type(data).__name__}")
            cfg = cls()
            _check_keys(data, cfg.to_dict())
            if "seed" in data:
                cfg.seed = int(data["seed"])
            if "recording_duration_s" in data:
                cfg.recording_duration_s = float(data["recording_duration_s"])
                if cfg.recording_duration_s <= 0:
                    raise ValueError("recording_duration_s must be positive")
            if "window" in data:
                window = _check_keys(data["window"], ("window_len_s", "step_s"), "window")
                cfg.window = WindowSpec(window_len_s=float(window["window_len_s"]), step_s=float(window["step_s"]))
            if "thresholds" in data:
                cfg.threshold_mode, cfg.thresholds = parse_threshold_policy(data["thresholds"])
            if "pda" in data or "pda_measure" in data:
                pda = _check_keys(data.get("pda", {}), CLASSES, "pda")
                fractions = {c: (None if v is None else float(v)) for c, v in pda.items()}
                cfg.pda = PdaPolicy(fractions=fractions, measure=data.get("pda_measure", "sum"))
            if "indices" in data:
                cfg.indices = _index_params(data["indices"])
            if "mixer" in data:
                mixer = _check_keys(data["mixer"], ("count_pmfs", "normalization"), "mixer")
                if "count_pmfs" in mixer:
                    cfg.mixer_count_pmfs = {
                        int(k): {int(n): float(p) for n, p in v.items()}
                        for k, v in mixer["count_pmfs"].items()
                    }
                cfg.mixer_normalization = mixer.get("normalization", cfg.mixer_normalization)
                if cfg.mixer_normalization not in ("peak", "rms"):
                    raise ValueError(f"unknown mixer normalization {cfg.mixer_normalization!r}")
            if "bootstrap" in data:
                bootstrap = _check_keys(data["bootstrap"], ("resamples", "confidence"), "bootstrap")
                cfg.bootstrap_resamples = int(bootstrap.get("resamples", cfg.bootstrap_resamples))
                cfg.bootstrap_confidence = float(bootstrap.get("confidence", cfg.bootstrap_confidence))
                if cfg.bootstrap_resamples < 1:
                    raise ValueError(f"bootstrap resamples must be >= 1, got {cfg.bootstrap_resamples}")
                if not 0 < cfg.bootstrap_confidence < 1:
                    raise ValueError(f"bootstrap confidence must be in (0, 1), got {cfg.bootstrap_confidence}")
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
    except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"not valid JSON ({exc})") from exc


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _is_number(value) -> bool:
    """True for a JSON number that is finite (booleans are not numbers here)."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))


def _check_keys(section, allowed, name=None):
    """The section, once checked to be an object whose keys are all in allowed."""
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be an object, got {section!r}")
    for key in section:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r}" + (f" in {name}" if name else ""))
    return section


def _index_params(idx) -> IndexParams:
    """Parse the indices section; values keep their JSON types, as the CSV header echoes them."""
    params = IndexParams()
    _check_keys(idx, params.to_dict(), "indices")
    for name in ("stft_window", "stft_hop", "target_rate_hz"):
        if name in idx:
            value = idx[name]
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"indices {name} must be an integer >= 1, got {value!r}")
            setattr(params, name, value)
    for name in ("aci_chunk_s", "adi_band_width_hz", "adi_max_freq_hz", "adi_db_threshold"):
        if name in idx:
            value = idx[name]
            if not (_is_number(value) or (name == "aci_chunk_s" and value is None)):
                raise ValueError(f"indices {name} must be a finite number, got {value!r}")
            setattr(params, name, value)
    for name in ("ndsi_anthro_hz", "ndsi_bio_hz"):
        if name in idx:
            band = idx[name]
            if not isinstance(band, (list, tuple)) or len(band) != 2 or not all(map(_is_number, band)):
                raise ValueError(f"indices {name} must be a pair of numbers [lo, hi], got {band!r}")
            setattr(params, name, tuple(band))
    if params.stft_hop > params.stft_window:
        raise ValueError(f"indices stft_hop {params.stft_hop} exceeds stft_window {params.stft_window}")
    check_bands(params.target_rate_hz / 2.0, (params.adi_band_width_hz, params.adi_max_freq_hz),
                (params.ndsi_anthro_hz, params.ndsi_bio_hz))
    return params


def parse_threshold_policy(data: dict):
    """Parse the thresholds section (also emitted standalone by the tune command)."""
    try:
        _check_keys(data, ("mode", "global", "per_class", "counts"), "thresholds")
        mode = data["mode"]
        counts = data.get("counts")
        if counts is not None:
            counts = {c: int(v) for c, v in counts.items()}
        if mode == "global":
            policy = ThresholdPolicy.global_threshold(float(data["global"]), counts=counts)
        elif mode == "per-class":
            policy = ThresholdPolicy(
                thresholds={c: float(v) for c, v in data["per_class"].items()}, counts=counts
            )
        else:
            raise ValueError(f"unknown threshold mode {mode!r}")
        return mode, policy
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid threshold policy: {exc}") from exc


def threshold_policy_to_dict(mode: str, policy: ThresholdPolicy) -> dict:
    """The thresholds section for mode and policy; inverse of parse_threshold_policy."""
    data: dict = {"mode": mode}
    if mode == "global":
        data["global"] = policy.thresholds[CLASSES[0]]
    else:
        data["per_class"] = dict(policy.thresholds)
    if policy.counts is not None:
        data["counts"] = dict(policy.counts)
    return data


def load_threshold_fragment(path):
    """Read a thresholds-only JSON fragment, as written by the tune command."""
    try:
        data = _read_json(path)
        if not isinstance(data, dict) or "thresholds" not in data:
            raise ConfigError("missing 'thresholds' section")
        return parse_threshold_policy(data["thresholds"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def dump_threshold_fragment(mode: str, policy: ThresholdPolicy, path) -> None:
    write_json(path, {"thresholds": threshold_policy_to_dict(mode, policy)})
