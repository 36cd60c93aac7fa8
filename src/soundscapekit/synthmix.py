"""Seeded synthetic soundscape mixing.

Mixtures are built by layering source files: each file gets a random gain in
[-30, 0] dB, files are added sequentially at RMS signal-to-noise ratios drawn
from [-5, +5] dB, and the running mix is peak-normalized after every
addition. Half of the mixtures get an extra noise bed (white Gaussian, white
uniform, or pink) at an SNR from [-5, +15] dB. Silence clips are synthesized
noise shaped by an initial gain in [-5, +1] dB and an attenuation stage in
[-40, -5] dB.

Everything is driven by numpy's seedable PCG64 generator; per-purpose
sub-streams are derived through SeedSequence so corpora regenerate
byte-identically, serial or parallel.
"""

import hashlib
import json
import os
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._runner import run_items
from ._table import Table, write_table
from .audio_io import AudioClip, decode_wav, resample, write_wav_pcm16
from .labels import CLASSES, COMBOS, SILENCE, SILENCE_COMBO, classes_for_combo

TARGET_LEN_S = 5.0
TARGET_RATE_HZ = 32000

NOISE_KINDS = ("white-gaussian", "white-uniform", "pink")

GAIN_RANGE_DB = (-30.0, 0.0)
LAYER_SNR_RANGE_DB = (-5.0, 5.0)
NOISE_SNR_RANGE_DB = (-5.0, 15.0)
NOISE_PROBABILITY = 0.5
SILENCE_INITIAL_GAIN_DB = (-5.0, 1.0)
SILENCE_ATTENUATION_DB = (-40.0, -5.0)

#: Peak level the running mix is normalized to after every addition.
MIX_PEAK = 0.99

#: Target RMS for the alternative "rms" normalization mode (-20 dBFS); the
#: peak cap still applies afterwards so clipping stays impossible.
MIX_RMS = 0.1

NORMALIZATION_MODES = ("peak", "rms")

CROSSFADE_S = 0.010

#: Bytes of decoded, resampled source audio one SourcePool keeps for reuse
#: (32 kHz float64 is 0.25 MB per second of source). Sources that no longer
#: fit are decoded again on every use, so memory stays bounded on large pools.
SOURCE_CACHE_BYTES = 128 * 2**20

#: File-count distributions keyed by the number of active classes. With one
#: class the counts apply to the mixture total; otherwise per class.
DEFAULT_COUNT_PMFS = {
    1: {1: 0.1, 2: 0.4, 3: 0.4, 4: 0.1},
    2: {1: 0.6, 2: 0.3, 3: 0.1},
    3: {1: 0.7, 2: 0.3},
}

# Sub-stream tags for SeedSequence([seed, tag]).
_STREAM_RECIPE = 0
_STREAM_LAYER_PREP = 1
_STREAM_MIX_NOISE = 2
_STREAM_SILENCE_PARAMS = 3
_STREAM_SILENCE_NOISE = 4


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def subseed(master_seed: int, index: int) -> int:
    """Derive the per-file 64-bit seed used by :func:`build_corpus`."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class SourcePool:
    """Per-class lists of source WAV files, in a stable order.

    The pool also keeps decoded sources, resampled to the rates asked for,
    up to SOURCE_CACHE_BYTES in total; see :meth:`samples`.
    """

    files: dict
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _cache_bytes: int = field(default=0, init=False, repr=False, compare=False)
    _key_locks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.files = {c: tuple(Path(p) for p in paths) for c, paths in self.files.items()}

    def samples(self, cls: str, index: int, rate_hz: int) -> np.ndarray:
        """Samples of source ``files[cls][index]`` at rate_hz.

        The first use decodes and resamples the file; while the cache has room
        the result is kept, read-only, and returned to every later caller.
        Threads asking for the same source wait for one decode.
        """
        key = (cls, index, rate_hz)
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._lock:
                x = self._cache.get(key)
            if x is None:
                path = self.files[cls][index]
                try:
                    x = resample(decode_wav(path), rate_hz).samples
                except ValueError as exc:  # a rate beyond the resampler's filter: name the file
                    raise ValueError(f"{path}: {exc}") from None
                with self._lock:
                    if self._cache_bytes + x.nbytes <= SOURCE_CACHE_BYTES:
                        x.flags.writeable = False
                        self._cache[key] = x
                        self._cache_bytes += x.nbytes
        return x

    @classmethod
    def from_manifest(cls, path) -> "SourcePool":
        """Load a pool manifest CSV with header ``file,class``; a row naming no file is an error at its line."""
        files = {c: [] for c in CLASSES}
        base = Path(path).parent
        table = Table(path, [["file", "class"]])
        for line, (name, class_name) in table:
            if class_name not in files:
                raise table.error(f"unknown class {class_name!r}", line)
            if not os.path.isfile(base / name):  # an absolute name replaces base
                raise table.error(f"file {str(base / name)!r} not found", line)
            files[class_name].append(base / name)
        return cls(files=files)


@dataclass(frozen=True)
class NoisePlan:
    kind: str
    snr_db: float


@dataclass(frozen=True)
class MixRecipe:
    """Everything needed to re-render one mixture deterministically."""

    active_classes: frozenset
    per_class_file_counts: dict
    layers: tuple  # (class_name, pool_file_index) in mixing order
    per_file_gain_db: tuple
    layer_snr_db: tuple  # one per layer after the first
    noise: NoisePlan | None
    seed: int
    target_len_s: float = TARGET_LEN_S
    target_rate_hz: int = TARGET_RATE_HZ

    def __post_init__(self):
        if not self.active_classes:
            raise ValueError("a mix needs at least one active class")
        n_active = len(self.active_classes)
        total = sum(self.per_class_file_counts.values())
        per_class_cap = {1: 4, 2: 3, 3: 2}[n_active]
        if n_active == 1 and not 1 <= total <= 4:
            raise ValueError(f"single-class mix must use 1..4 files, got {total}")
        if any(c < 1 or c > per_class_cap for c in self.per_class_file_counts.values()):
            raise ValueError(f"per-class file count out of range for {n_active} active classes")
        for g in self.per_file_gain_db:
            if not GAIN_RANGE_DB[0] <= g <= GAIN_RANGE_DB[1]:
                raise ValueError(f"gain {g} dB outside {GAIN_RANGE_DB}")
        for s in self.layer_snr_db:
            if not LAYER_SNR_RANGE_DB[0] <= s <= LAYER_SNR_RANGE_DB[1]:
                raise ValueError(f"layer SNR {s} dB outside {LAYER_SNR_RANGE_DB}")
        if self.noise is not None:
            if self.noise.kind not in NOISE_KINDS:
                raise ValueError(f"unknown noise kind {self.noise.kind!r}")
            if not NOISE_SNR_RANGE_DB[0] <= self.noise.snr_db <= NOISE_SNR_RANGE_DB[1]:
                raise ValueError(f"noise SNR {self.noise.snr_db} dB outside {NOISE_SNR_RANGE_DB}")
        if len(self.layer_snr_db) != max(0, len(self.layers) - 1):
            raise ValueError("need one SNR per layer after the first")


@dataclass(frozen=True)
class SilenceRecipe:
    noise_kind: str
    initial_gain_db: float
    attenuation_db: float
    seed: int
    target_len_s: float = TARGET_LEN_S
    target_rate_hz: int = TARGET_RATE_HZ


@dataclass(frozen=True)
class MixedClip:
    clip: AudioClip
    labels: frozenset
    recipe: object  # MixRecipe or SilenceRecipe

    def __post_init__(self):
        n_expected = round(self.recipe.target_len_s * self.recipe.target_rate_hz)
        if len(self.clip.samples) != n_expected:
            raise ValueError(f"rendered clip has {len(self.clip.samples)} samples, expected {n_expected}")
        peak = float(np.abs(self.clip.samples).max(initial=0.0))
        if peak > 1.0:
            raise ValueError(f"rendered clip peak {peak} exceeds 1")


def recipe_digest(recipe) -> str:
    """Stable hex digest of a recipe's canonical JSON form (a frozenset as its sorted list)."""
    data = {"kind": "mix" if isinstance(recipe, MixRecipe) else "silence", **vars(recipe)}
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"),
                      default=lambda o: sorted(o) if isinstance(o, frozenset) else vars(o))
    return hashlib.sha256(blob.encode()).hexdigest()


def synth_noise(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Generate n samples of the requested noise kind, peak-normalized to <= 1."""
    if kind == "white-uniform":
        return rng.uniform(-1.0, 1.0, n)
    if kind == "white-gaussian":
        x = rng.standard_normal(n)
    elif kind == "pink":
        x = _pink_voss_mccartney(n, rng)
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    peak = np.abs(x).max()
    return x / peak if peak > 0 else x


def _pink_voss_mccartney(n: int, rng: np.random.Generator, rows: int = 16) -> np.ndarray:
    # Voss-McCartney: sum of generators held constant over octave-spaced spans,
    # plus one per-sample white generator.
    out = rng.uniform(-1.0, 1.0, n)
    for r in range(rows):
        span = 2 ** (r + 1)
        vals = rng.uniform(-1.0, 1.0, -(-n // span))
        head = out[:n - n % span].reshape(-1, span)  # whole spans, added in place; then the partial last one
        head += vals[:len(head), None]
        out[len(head) * span:] += vals[len(head):]
    return out / (rows + 1)


def _sample_pmf(rng: np.random.Generator, pmf: dict) -> int:
    keys = sorted(pmf)
    probs = np.array([pmf[k] for k in keys], dtype=float)
    return int(rng.choice(keys, p=probs / probs.sum()))


def _check_sources(pool: SourcePool, classes) -> None:
    """Raise ValueError naming the first class, in CLASSES order, that the pool has no files for."""
    for c in CLASSES:
        if c in classes and not pool.files.get(c):
            raise ValueError(f"source pool has no files for class {c!r}")


def draw_recipe(pool: SourcePool, active_classes, rng_seed: int, count_pmfs=None) -> MixRecipe:
    """Sample a MixRecipe; identical (pool order, classes, seed) give identical recipes.

    Draw order is fixed: per-class counts, per-class file indices, layer
    shuffle, gains, layer SNRs, then the noise coin/kind/SNR.
    """
    active = frozenset(active_classes)
    if not active:
        raise ValueError("need at least one active class")
    _check_sources(pool, active)
    ordered = [c for c in CLASSES if c in active]

    pmf = (count_pmfs or DEFAULT_COUNT_PMFS)[len(ordered)]
    rng = _rng(rng_seed, _STREAM_RECIPE)

    counts = {c: _sample_pmf(rng, pmf) for c in ordered}
    indices = {c: rng.integers(0, len(pool.files[c]), size=counts[c]) for c in ordered}
    layers = [(c, int(i)) for c in ordered for i in indices[c]]
    order = np.arange(len(layers))
    rng.shuffle(order)
    layers = tuple(layers[i] for i in order)

    gains = tuple(rng.uniform(*GAIN_RANGE_DB, size=len(layers)).tolist())
    snrs = tuple(rng.uniform(*LAYER_SNR_RANGE_DB, size=max(0, len(layers) - 1)).tolist())

    noise = None
    if rng.random() < NOISE_PROBABILITY:
        kind = NOISE_KINDS[rng.integers(0, len(NOISE_KINDS))]
        noise = NoisePlan(kind=kind, snr_db=float(rng.uniform(*NOISE_SNR_RANGE_DB)))

    return MixRecipe(
        active_classes=active,
        per_class_file_counts=counts,
        layers=layers,
        per_file_gain_db=gains,
        layer_snr_db=snrs,
        noise=noise,
        seed=int(rng_seed),
    )


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x**2))) if len(x) else 0.0


def _fit_length(x: np.ndarray, n: int, rate: int, rng: np.random.Generator) -> np.ndarray:
    """Crop at a random offset, or loop with a short crossfade, to exactly n samples, as a new array.

    A loop is x[:body], `repeats` periods (the seam fading x[body:] into x[:fade], then x[fade:body])
    and x[body:], cut to n, in time linear in n. Only reads x, which may be a read-only cached source.
    """
    if len(x) > n:
        off = int(rng.integers(0, len(x) - n + 1))
        return x[off : off + n].copy()

    # at most half of x, so the seam's two ends stay apart and each period adds body >= 1 samples
    fade = min(int(round(CROSSFADE_S * rate)), len(x) // 2)
    body = len(x) - fade
    ramp = np.linspace(0.0, 1.0, fade)
    repeats = -(-(n - len(x)) // body)
    out = np.empty(len(x) + repeats * body)
    out[:body] = x[:body]
    periods = out[body : body + repeats * body].reshape(repeats, body)
    periods[:, :fade] = x[body:] * (1.0 - ramp) + x[:fade] * ramp
    periods[:, fade:] = x[fade:body]
    out[body + repeats * body :] = x[body:]
    return out[:n]


def _normalize(mix: np.ndarray, layers: list, mode: str) -> None:
    if mode == "peak":
        peak = np.abs(mix).max()
        g = MIX_PEAK / peak if peak > 0 else 1.0
    else:
        level = _rms(mix)
        g = MIX_RMS / level if level > 0 else 1.0
        peak = np.abs(mix).max() * g
        if peak > MIX_PEAK:  # keep the no-clipping guarantee in rms mode
            g *= MIX_PEAK / peak
    mix *= g
    for layer in layers:
        layer *= g


def render_mix(recipe: MixRecipe, pool: SourcePool, keep_layers: bool = False, normalization: str = "peak"):
    """Render a recipe to a MixedClip.

    normalization picks what "normalising after each addition" means: "peak"
    scales the running mix to 0.99 peak, "rms" to -20 dBFS RMS (peak-capped).
    With keep_layers=True, also returns the list of per-layer contributions
    as they appear in the final mix (their sum reproduces the output), which
    lets callers measure the SNR each addition actually achieved.
    """
    if normalization not in NORMALIZATION_MODES:
        raise ValueError(f"normalization must be one of {NORMALIZATION_MODES}, got {normalization!r}")
    n = round(recipe.target_len_s * recipe.target_rate_hz)
    prep_rng = _rng(recipe.seed, _STREAM_LAYER_PREP)

    def prepared():
        # one layer at a time; the layer and noise streams are separate,
        # so preparing lazily draws the same numbers as preparing up front
        for (cls, idx), gain_db in zip(recipe.layers, recipe.per_file_gain_db):
            src = pool.samples(cls, idx, recipe.target_rate_hz)
            x = _fit_length(src, n, recipe.target_rate_hz, prep_rng)
            x *= 10.0 ** (gain_db / 20.0)
            yield x
        if recipe.noise is not None:
            yield synth_noise(recipe.noise.kind, n, _rng(recipe.seed, _STREAM_MIX_NOISE))

    snrs = list(recipe.layer_snr_db)
    if recipe.noise is not None:
        snrs.append(recipe.noise.snr_db)

    mix = np.zeros(n)
    layers = []
    for k, x in enumerate(prepared()):
        if k > 0:
            mix_rms, x_rms = _rms(mix), _rms(x)
            if x_rms > 0 and mix_rms > 0:
                x *= mix_rms / 10.0 ** (snrs[k - 1] / 20.0) / x_rms
        mix += x
        if keep_layers:
            layers.append(x)
        _normalize(mix, layers, normalization)

    mixed = MixedClip(
        clip=AudioClip(samples=mix, sample_rate_hz=recipe.target_rate_hz, source_id=f"mix-{recipe.seed}"),
        labels=recipe.active_classes,
        recipe=recipe,
    )
    return (mixed, layers) if keep_layers else mixed


def draw_silence_recipe(seed: int) -> SilenceRecipe:
    rng = _rng(seed, _STREAM_SILENCE_PARAMS)
    kind = NOISE_KINDS[rng.integers(0, len(NOISE_KINDS))]
    return SilenceRecipe(
        noise_kind=kind,
        initial_gain_db=float(rng.uniform(*SILENCE_INITIAL_GAIN_DB)),
        attenuation_db=float(rng.uniform(*SILENCE_ATTENUATION_DB)),
        seed=int(seed),
    )


def render_silence_recipe(recipe: SilenceRecipe) -> MixedClip:
    n = round(recipe.target_len_s * recipe.target_rate_hz)
    noise = synth_noise(recipe.noise_kind, n, _rng(recipe.seed, _STREAM_SILENCE_NOISE))
    x = noise * 10.0 ** ((recipe.initial_gain_db + recipe.attenuation_db) / 20.0)
    return MixedClip(
        clip=AudioClip(samples=x, sample_rate_hz=recipe.target_rate_hz, source_id=f"silence-{recipe.seed}"),
        labels=frozenset({SILENCE}),
        recipe=recipe,
    )


def render_silence(seed: int) -> MixedClip:
    """Synthesize a 5 s silence-class clip: shaped noise, then a deep attenuation stage."""
    return render_silence_recipe(draw_silence_recipe(seed))


MANIFEST_HEADER = ("file", "anthropophony", "biophony", "geophony", "silence", "seed", "recipe")


def build_corpus(
    pool: SourcePool,
    counts: dict,
    seed: int,
    out_dir,
    jobs: int = 1,
    count_pmfs=None,
    normalization: str = "peak",
) -> Path:
    """Render a labeled corpus and write ``manifest.csv``; returns the manifest path.

    counts maps combination strings ("A", "BG", "ABG", "S", ...) to the number
    of files to render. Each file derives an independent sub-seed from
    (seed, file index), so serial and parallel runs are byte-identical. An
    unknown code, a negative count, or a class to render that the pool has no
    files for raises ValueError before anything is created. Any later failure
    removes the files and directories this call created, and leaves what was
    there before.
    """
    for combo, n in counts.items():  # validate before the output directory is made
        classes = classes_for_combo(combo)
        if n < 0:
            raise ValueError(f"negative count for combination {combo!r}")
        if n > 0:
            _check_sources(pool, classes)
    combos = [combo for combo in sorted(counts, key=COMBOS.index) for _ in range(counts[combo])]
    out_dir = Path(out_dir)
    files = [out_dir / f"{i:06d}_{combo}.wav" for i, combo in enumerate(combos)]
    new_files = [f for f in files if not f.exists()]
    new_dirs = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)

    def render(i):
        """Write clip i and return its manifest row."""
        fseed = subseed(seed, i)
        if combos[i] == SILENCE_COMBO:
            mixed = render_silence(fseed)
        else:
            recipe = draw_recipe(pool, classes_for_combo(combos[i]), fseed, count_pmfs=count_pmfs)
            mixed = render_mix(recipe, pool, normalization=normalization)
        write_wav_pcm16(files[i], mixed.clip)
        flags = [int(c in mixed.labels) for c in (*CLASSES, SILENCE)]
        return (files[i].name, *flags, fseed, recipe_digest(mixed.recipe))

    manifest = out_dir / "manifest.csv"
    try:
        rows = [row for row, _ in run_items(render, range(len(combos)), jobs)]
        write_table(manifest, MANIFEST_HEADER, [list(zip(*rows))])
    except BaseException:
        for f in new_files:
            f.unlink(missing_ok=True)
        with suppress(OSError):  # a directory someone else wrote into stays
            for d in new_dirs:
                d.rmdir()
        raise
    return manifest
