"""Command-line front end: batch workflows over directories and CSV files.

Logs go to stderr and data to files or stdout, so commands compose in
pipelines. All randomness flows from the seed in the config (or --seed);
commands print the effective seed they used. Exit status is 0 only when
every per-item operation succeeded.
"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import __version__
from .audio_io import decode_wav, resample
from .config import RunConfig, dump_threshold_fragment, load_threshold_fragment
from .decision import (
    ThresholdPolicy,
    dump_decisions,
    load_annotations,
    load_decisions,
    pda_kept,
    window_active,
    window_max,
)
from ._table import Table, replacing, write_json, write_table
from .errors import ConfigError, SchemaError, SoundscapeKitError
from .evaluation import CASE_STUDY_FILTERS, correlate, curve, evaluate, stratify_errors, tune_thresholds
from .features import stft_magnitude
from .indices import IndexResult, aci, adi, ndsi
from .labels import CLASSES
from .scores import load_scores
from .synthmix import SourcePool, build_corpus


_INDICES_HEADER = ["recording_id", "aci", "adi", "ndsi"]


def _log(msg: str) -> None:
    click.echo(msg, err=True)


def _load_config(path, thresholds_path=None) -> RunConfig:
    """The run config, with the policy of a threshold fragment if one is given.

    Any ConfigError ends the command with a one-line error and exit 1.
    """
    try:
        cfg = RunConfig.load(path) if path else RunConfig()
        if thresholds_path:
            cfg.threshold_mode, cfg.thresholds = load_threshold_fragment(thresholds_path)
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc
    return cfg


def _fail(command, exc):
    """End the command with exit 1; a schema error already starts with path:line."""
    _log(str(exc) if isinstance(exc, SchemaError) else f"{command}: FAILED: {exc}")
    sys.exit(1)


@click.group()
@click.version_option(version=__version__)
def main():
    """Soundscape analysis toolkit: mixing, indices, decisions, evaluation."""


@main.command("indices")
@click.argument("audio_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default="-", help="Output CSV path ('-' for stdout).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True, help="Parallel workers.")
@click.option("--timing", is_flag=True, help="Add a wall_s column with per-file processing time.")
def cmd_indices(audio_dir, out, config_path, jobs, timing):
    """Compute ACI, ADI, and NDSI for every WAV file in AUDIO_DIR."""
    cfg = _load_config(config_path)
    p = cfg.indices
    files = sorted(Path(audio_dir).glob("*.wav"))
    _log(f"indices: {len(files)} files, seed={cfg.seed}")

    def process(path):
        t0 = time.perf_counter()
        clip = resample(decode_wav(path), p.target_rate_hz)
        spec = stft_magnitude(clip, window_len=p.stft_window, hop=p.stft_hop)
        result = IndexResult(
            recording_id=path.stem,
            aci=aci(spec, chunk_s=p.aci_chunk_s),
            adi=adi(spec, p.adi_band_width_hz, p.adi_max_freq_hz, p.adi_db_threshold),
            ndsi=ndsi(clip, p.ndsi_anthro_hz, p.ndsi_bio_hz),
        )
        return result, time.perf_counter() - t0

    def attempt(fetch):
        try:
            return fetch(), None
        except (SoundscapeKitError, ValueError) as exc:
            return None, exc

    # results buffered and emitted in input order regardless of worker count
    if jobs > 1 and files:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(process, f) for f in files]
        results = [(f, *attempt(fut.result)) for f, fut in zip(files, futures)]
    else:
        results = [(f, *attempt(lambda f=f: process(f))) for f in files]

    failures = 0
    rows = []

    for f, payload, exc in results:
        if exc is not None:
            failures += 1
            _log(f"indices: FAILED {f}: {exc}")
            continue
        result, wall = payload
        row = [
            result.recording_id,
            repr(result.aci),
            repr(result.adi),
            "" if result.ndsi is None else repr(result.ndsi),
        ]
        if timing:
            row.append(f"{wall:.6f}")
        rows.append(row)

    header = _INDICES_HEADER + (["wall_s"] if timing else [])
    comments = [
        f"# stft_window={p.stft_window} stft_hop={p.stft_hop} target_rate_hz={p.target_rate_hz}",
        f"# aci_chunk_s={p.aci_chunk_s} adi_band_width_hz={p.adi_band_width_hz} "
        f"adi_max_freq_hz={p.adi_max_freq_hz} adi_db_threshold={p.adi_db_threshold}",
        f"# ndsi_anthro_hz={list(p.ndsi_anthro_hz)} ndsi_bio_hz={list(p.ndsi_bio_hz)}",
    ]
    try:
        write_table(out, header, rows, comments=comments)
    except OSError as exc:
        _fail("indices", exc)
    if failures:
        _log(f"indices: {failures} file(s) failed")
        sys.exit(1)


@main.command("mix")
@click.argument("pool_manifest", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--count", "counts", multiple=True, metavar="COMBO=N",
              help="Files to render per combination, e.g. --count A=10 --count BG=5 --count S=3.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Master seed (overrides config).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
def cmd_mix(pool_manifest, out_dir, counts, seed, config_path, jobs):
    """Render a synthetic labeled corpus from a source pool manifest."""
    cfg = _load_config(config_path)
    if seed is not None:
        cfg.seed = seed
    parsed = {}
    for item in counts:
        combo, _, n = item.partition("=")
        try:
            parsed[combo.strip().upper()] = int(n)
        except ValueError:
            raise click.BadParameter(f"expected COMBO=N with an integer N, got {item!r}",
                                     param_hint="'--count'") from None
    _log(f"mix: seed={cfg.seed} combos={parsed}")

    try:
        pool = SourcePool.from_manifest(pool_manifest)
        manifest = build_corpus(
            pool, parsed, cfg.seed, out_dir,
            jobs=jobs, count_pmfs=cfg.mixer_count_pmfs, normalization=cfg.mixer_normalization,
        )
    except (SoundscapeKitError, ValueError, OSError) as exc:
        _fail("mix", exc)
    _log(f"mix: wrote {manifest}")


def _scores_and_truth(scores_path, annotations_path, cfg, policy):
    """The score table and its PDA-filtered truth, [recordings x CLASSES] flags in table row order."""
    duration = cfg.recording_duration_s
    scores = load_scores(scores_path, window_len_s=cfg.window.window_len_s, duration_s=duration)
    anns = load_annotations(annotations_path, duration_s=duration)
    unknown = set(anns).difference(scores.recording_ids)
    if unknown:
        raise SoundscapeKitError(f"annotations for recordings without scores: {sorted(unknown)[:5]}")

    true = np.zeros((len(scores), len(CLASSES)), dtype=bool)
    for i, rid in enumerate(scores.recording_ids):
        if rid in anns:
            true[i] = pda_kept(anns[rid], cfg.pda)

    if policy is not None and policy.counts and len(scores):
        min_windows = int(scores.n_windows.min())
        for cls, c in policy.counts.items():
            if c > min_windows:
                raise SoundscapeKitError(
                    f"count {c} for {cls} exceeds the {min_windows} windows of the shortest recording"
                )
    return scores, true


@main.command("evaluate")
@click.argument("scores_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("annotations_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--thresholds", "thresholds_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Threshold fragment from the tune command; overrides the config policy.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Bootstrap seed (overrides config).")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def cmd_evaluate(scores_csv, annotations_csv, config_path, thresholds_path, seed, out_dir):
    """Apply duration filtering and thresholds to scores, then write the evaluation report."""
    cfg = _load_config(config_path, thresholds_path)
    if seed is not None:
        cfg.seed = seed
    _log(f"evaluate: seed={cfg.seed} mode={cfg.threshold_mode}")

    out = Path(out_dir)
    try:
        scores, true = _scores_and_truth(scores_csv, annotations_csv, cfg, cfg.thresholds)
        pred = window_active(scores, cfg.thresholds)
        report = evaluate(
            pred,
            true,
            bootstrap_resamples=cfg.bootstrap_resamples,
            confidence=cfg.bootstrap_confidence,
            bootstrap_seed=cfg.seed,
        )
        stratified = stratify_errors(pred, true)
        _write_evaluation(out, scores, pred, true, report, stratified)
    except (SoundscapeKitError, ValueError, OSError) as exc:
        _fail("evaluate", exc)
    _log(
        f"evaluate: macro_f1={report.macro_f1:.3f} "
        f"ci=[{report.macro_f1_ci[0]:.3f}, {report.macro_f1_ci[1]:.3f}] -> {out}"
    )


def _write_evaluation(out, scores, pred, true, report, stratified):
    """report.json, report.txt, curves.csv, stratified.csv and decisions.csv in the directory out."""
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", report.to_dict())
    with replacing(out / "report.txt") as fh:
        fh.write(report.to_table() + "\n")
    write_table(out / "curves.csv", ["class", "kind", "threshold", "x", "y"], _curve_rows(scores, true))
    strat_rows = [
        [cls, combo, kind, count, "" if rate is None else repr(rate)]
        for cls, combo, kind, count, rate in stratified.to_rows()
    ]
    write_table(out / "stratified.csv", ["target", "combination", "kind", "count", "rate"], strat_rows)
    dump_decisions(scores.recording_ids, pred, out / "decisions.csv")


def _curve_rows(scores, true):
    """curves.csv rows, one curve at a time: PR per class, and ROC where both labels occur."""
    maxes = window_max(scores)
    for j, cls in enumerate(CLASSES):
        kinds = ["PR"]
        if true[:, j].any() and not true[:, j].all():
            kinds.append("ROC")
        else:
            _log(f"evaluate: skipping ROC for {cls} (degenerate labels)")
        for kind in kinds:
            for threshold, x, y in curve(maxes[:, j], true[:, j], kind).points.tolist():
                yield [cls, kind, repr(threshold), repr(x), repr(y)]


@main.command("tune")
@click.argument("scores_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("annotations_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--objective", type=click.Choice(["f1", "youden"]), default="f1", show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--grid", is_flag=True, help="Also consider a 0.001-step threshold grid.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def cmd_tune(scores_csv, annotations_csv, objective, config_path, grid, out_path):
    """Find per-class thresholds maximizing F1 or Youden's J; emit a config fragment."""
    cfg = _load_config(config_path)
    _log(f"tune: objective={objective} seed={cfg.seed}")
    try:
        scores, true = _scores_and_truth(scores_csv, annotations_csv, cfg, None)
        maxes = window_max(scores)
        tuned = tune_thresholds({cls: maxes[:, j] for j, cls in enumerate(CLASSES)},
                                {cls: true[:, j] for j, cls in enumerate(CLASSES)},
                                objective=objective, grid_step=0.001 if grid else None)
        dump_threshold_fragment("per-class", ThresholdPolicy(thresholds=tuned), out_path)
    except (SoundscapeKitError, ValueError, OSError) as exc:
        _fail("tune", exc)

    for cls in CLASSES:
        _log(f"tune: {cls} -> {tuned[cls]:.6g}")
    _log(f"tune: wrote {out_path}")


def _read_indices_csv(path):
    table = Table(path, [_INDICES_HEADER, _INDICES_HEADER + ["wall_s"]], comments=True)
    out = {}
    for line, (rec_id, aci_cell, adi_cell, ndsi_cell, *_) in table.keyed():
        ndsi_val = table.number(ndsi_cell, line) if ndsi_cell else None
        out[rec_id] = IndexResult(rec_id, table.number(aci_cell, line), table.number(adi_cell, line), ndsi_val)
    return out


def _read_diversity_csv(path):
    table = Table(path, [["recording_id", "species_count"]])
    return {rec_id: table.number(count, line) for line, (rec_id, count) in table.keyed()}


@main.command("case-study")
@click.argument("indices_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("diversity_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("labels_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--model-labels", "model_labels_csv", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Model decisions CSV; adds rows with source=model.")
@click.option("--filters", default="all,B,AB,BG", show_default=True,
              help="Comma-separated filter names out of all,B,AB,BG.")
@click.option("--out", type=click.Path(dir_okay=False), default="-")
def cmd_case_study(indices_csv, diversity_csv, labels_csv, model_labels_csv, filters, out):
    """Correlate acoustic indices with species richness on filtered recordings."""
    try:
        index_by_id = _read_indices_csv(indices_csv)
        diversity = _read_diversity_csv(diversity_csv)
        label_files = {"truth": labels_csv, "model": model_labels_csv}
        sources = {s: {d.recording_id: d.active for d in load_decisions(p)} for s, p in label_files.items() if p}
    except SoundscapeKitError as exc:
        _fail("case-study", exc)

    filter_names = [f.strip() for f in filters.split(",") if f.strip()]
    for name in filter_names:
        if name not in CASE_STUDY_FILTERS:
            _log(f"case-study: unknown filter {name!r} (known: {sorted(CASE_STUDY_FILTERS)})")
            sys.exit(1)

    missing = [rid for rid in index_by_id if rid not in diversity]
    missing += [rid for src in sources.values() for rid in index_by_id if rid not in src]
    if missing:
        _log(f"case-study: FAILED: recordings missing diversity or labels: {sorted(set(missing))[:5]}")
        sys.exit(1)

    rows = []
    failures = 0
    results = list(index_by_id.values())
    for index_name in ("aci", "adi", "ndsi"):
        for fname in filter_names:
            for source, label_sets in sources.items():
                try:
                    res = correlate(
                        results, index_name, diversity, label_sets,
                        CASE_STUDY_FILTERS[fname], filter_name=fname,
                    )
                    rows.append([index_name, fname, source, res.n, repr(res.rho), ""])
                except ValueError as exc:
                    failures += 1
                    rows.append([index_name, fname, source, "", "", str(exc)])
    try:
        write_table(out, ["index", "filter", "source", "n", "r", "note"], rows)
    except OSError as exc:
        _fail("case-study", exc)
    if failures:
        _log(f"case-study: {failures} correlation(s) could not be computed")
        sys.exit(1)


if __name__ == "__main__":
    main()
