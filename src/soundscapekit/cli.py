"""Command-line front end: batch workflows over directories and CSV files.

Logs go to stderr and data to files or stdout, so commands compose in
pipelines. All randomness flows from the seed in the config (or --seed);
commands print the effective seed they used. Exit status is 0 only when
every per-item operation succeeded.
"""

import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .audio_io import decode_wav, resample
from .config import RunConfig, dump_threshold_fragment, load_threshold_fragment
from .decision import (
    ThresholdPolicy,
    dump_decisions,
    load_decisions,
    pda_truth,
    window_active,
    window_max,
)
from ._runner import run_items
from ._table import Table, replacing, write_json, write_table
from .errors import AudioDecodeError, ConfigError, SchemaError, SoundscapeKitError
from .evaluation import CASE_STUDY_FILTERS, correlate, curve, evaluate, stratify_errors, tune_thresholds
from .features import stft_magnitude
from .indices import aci, adi, ndsi
from .labels import CLASSES, classes_for_combo
from .scores import load_scores
from .synthmix import SourcePool, build_corpus


_INDICES_HEADER = ["recording_id", "aci", "adi", "ndsi"]


def _log(msg: str) -> None:
    """One stderr line; a byte that is not UTF-8 (a path's surrogate escape) shows as \\xNN in every locale."""
    click.echo(msg.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace"), err=True)


def _load_config(path, thresholds_path=None) -> RunConfig:
    """The run config, with the policy of a threshold fragment if one is given."""
    cfg = RunConfig.load(path) if path else RunConfig()
    if thresholds_path:
        cfg.thresholds = load_threshold_fragment(thresholds_path)
    return cfg


def _fail(command, exc):
    """End the command with exit 1; a schema error already starts with path:line, a config error with its path."""
    prefix = "" if isinstance(exc, SchemaError) else "Error: " if isinstance(exc, ConfigError) else f"{command}: FAILED: "
    _log(f"{prefix}{str(exc) or type(exc).__name__}")
    sys.exit(1)


class _Commands(click.Group):
    """The command group; any error a command lets through ends it in one line and exit 1.

    Running out of memory or stack ends a command the same way; an interrupt or an exit is not caught.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (SoundscapeKitError, ValueError, OSError, MemoryError, RecursionError) as exc:
            _fail(ctx.invoked_subcommand, exc)


@click.group(cls=_Commands)
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
    """Compute ACI, ADI, and NDSI for every WAV file (.wav in any case) in AUDIO_DIR."""
    cfg = _load_config(config_path)
    p = cfg.indices
    files = sorted(f for f in Path(audio_dir).iterdir() if f.name.lower().endswith(".wav"))
    first = {f.stem: f for f in reversed(files)}  # recording_id -> its first file in sort order
    _log(f"indices: {len(files)} files, seed={cfg.seed}")

    def process(path):
        """The file's CSV row, or the error that stopped this file."""
        if first[path.stem] != path:
            return SoundscapeKitError(f"recording_id {path.stem!r} already taken by {first[path.stem].name}")
        try:  # the bytes of the name, in any locale: its recording_id must read back from the CSV
            os.fsencode(path.name).decode("utf-8")
        except UnicodeDecodeError:
            return SoundscapeKitError("file name is not UTF-8, so its recording_id would not read back")
        try:
            clip = resample(decode_wav(path), p.target_rate_hz)
            spec = stft_magnitude(clip, window_len=p.stft_window, hop=p.stft_hop)
            return [path.stem, aci(spec, chunk_s=p.aci_chunk_s),
                    adi(spec, p.adi_band_width_hz, p.adi_max_freq_hz, p.adi_db_threshold),
                    ndsi(clip, p.ndsi_anthro_hz, p.ndsi_bio_hz)]
        except (SoundscapeKitError, ValueError) as exc:
            return exc

    rows = []
    for f, (outcome, wall) in zip(files, run_items(process, files, jobs)):
        if isinstance(outcome, AudioDecodeError):  # its message starts with the path
            _log(f"indices: FAILED {outcome}")
        elif isinstance(outcome, Exception):
            _log(f"indices: FAILED {f}: {outcome}")
        else:
            rows.append(outcome + [f"{wall:.6f}"] if timing else outcome)
    failures = len(files) - len(rows)

    header = _INDICES_HEADER + (["wall_s"] if timing else [])
    comments = [
        f"# stft_window={p.stft_window} stft_hop={p.stft_hop} target_rate_hz={p.target_rate_hz}",
        f"# aci_chunk_s={p.aci_chunk_s} adi_band_width_hz={p.adi_band_width_hz} "
        f"adi_max_freq_hz={p.adi_max_freq_hz} adi_db_threshold={p.adi_db_threshold}",
        f"# ndsi_anthro_hz={list(p.ndsi_anthro_hz)} ndsi_bio_hz={list(p.ndsi_bio_hz)}",
    ]
    write_table(out, header, [list(zip(*rows))], comments=comments)
    if failures:
        _log(f"indices: {failures} file(s) failed")
        sys.exit(1)


def _combo_counts(ctx, param, items) -> dict:
    """The --count items as {combination: N}; a bad code or N, or a repeated code, is a usage error."""
    parsed = {}
    for item in items:
        combo, _, n = item.partition("=")
        combo = combo.strip().upper()
        try:
            classes_for_combo(combo)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from None
        if combo in parsed:
            raise click.BadParameter(f"combination {combo!r} given more than once")
        try:
            parsed[combo] = int(n)
        except ValueError:
            raise click.BadParameter(f"expected COMBO=N with an integer N, got {item!r}") from None
        if parsed[combo] < 0:
            raise click.BadParameter(f"expected COMBO=N with N >= 0, got {item!r}")
    return parsed


@main.command("mix")
@click.argument("pool_manifest", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--count", "counts", multiple=True, metavar="COMBO=N", callback=_combo_counts,
              help="Files to render per combination, e.g. --count A=10 --count BG=5 --count S=3.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Master seed (overrides config).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
def cmd_mix(pool_manifest, out_dir, counts, seed, config_path, jobs):
    """Render a synthetic labeled corpus from a source pool manifest."""
    cfg = _load_config(config_path)
    if seed is not None:
        cfg.seed = seed
    _log(f"mix: seed={cfg.seed} combos={counts}")

    pool = SourcePool.from_manifest(pool_manifest)
    manifest = build_corpus(
        pool, counts, cfg.seed, out_dir,
        jobs=jobs, count_pmfs=cfg.mixer_count_pmfs, normalization=cfg.mixer_normalization,
    )
    _log(f"mix: wrote {manifest}")


def _scores_and_truth(scores_path, annotations_path, cfg):
    """The score table and its PDA-filtered truth, [recordings x CLASSES] flags in table row order."""
    duration = cfg.recording_duration_s
    scores = load_scores(scores_path, window_len_s=cfg.window.window_len_s, duration_s=duration)
    if not len(scores):
        raise SchemaError("no score rows", path=scores_path)
    return scores, pda_truth(annotations_path, scores.recording_ids, duration, cfg.pda)


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
    _log(f"evaluate: seed={cfg.seed} mode={cfg.thresholds.mode}")

    out = Path(out_dir)
    scores, true = _scores_and_truth(scores_csv, annotations_csv, cfg)
    cfg.thresholds.check_counts(int(scores.n_windows.min()))
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
    write_table(out / "curves.csv", ["class", "kind", "threshold", "x", "y"], _curve_blocks(scores, true))
    write_table(out / "stratified.csv", ["target", "combination", "kind", "count", "rate"],
                [list(zip(*stratified.to_rows()))])
    dump_decisions(scores.recording_ids, pred, out / "decisions.csv")


def _curve_blocks(scores, true):
    """curves.csv columns, one curve at a time: PR per class, and ROC where both labels occur."""
    maxes = window_max(scores)
    for j, cls in enumerate(CLASSES):
        kinds = ["PR"]
        if true[:, j].any() and not true[:, j].all():
            kinds.append("ROC")
        else:
            _log(f"evaluate: skipping ROC for {cls} (degenerate labels)")
        for kind in kinds:
            points = curve(maxes[:, j], true[:, j], kind).points
            yield [[cls] * len(points), [kind] * len(points), *points.T]


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
    scores, true = _scores_and_truth(scores_csv, annotations_csv, cfg)
    maxes = window_max(scores)
    tuned = tune_thresholds({cls: maxes[:, j] for j, cls in enumerate(CLASSES)},
                            {cls: true[:, j] for j, cls in enumerate(CLASSES)},
                            objective=objective, grid_step=0.001 if grid else None)
    dump_threshold_fragment(ThresholdPolicy(tuned), out_path)

    for cls in CLASSES:
        _log(f"tune: {cls} -> {tuned[cls]:.6g}")
    _log(f"tune: wrote {out_path}")


def _read_indices_csv(path):
    """The indices table and its rows as (line, recording_id, [aci, adi, ndsi]), NaN for an empty (undefined)
    NDSI cell."""
    table = Table(path, [_INDICES_HEADER, _INDICES_HEADER + ["wall_s"]], comments=True)
    rows = []
    for line, (rec_id, aci_cell, adi_cell, ndsi_cell, *_) in table.keyed():
        ndsi_val = table.number(ndsi_cell, line) if ndsi_cell else np.nan
        rows.append((line, rec_id, [table.number(aci_cell, line), table.number(adi_cell, line), ndsi_val]))
    return table, rows


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
    index_table, index_rows = _read_indices_csv(indices_csv)
    diversity = _read_diversity_csv(diversity_csv)
    label_files = {"truth": labels_csv, "model": model_labels_csv}
    sources = {s: load_decisions(p) for s, p in label_files.items() if p}

    filter_names = [f.strip() for f in filters.split(",") if f.strip()]
    for name in filter_names:
        if name not in CASE_STUDY_FILTERS:
            raise SoundscapeKitError(f"unknown filter {name!r} (known: {sorted(CASE_STUDY_FILTERS)})")

    # each table's row of each indices row, in file order; the first indices row whose id a table lacks is an
    # error at its line, the tables taken in argument order
    tables = [(diversity_csv, diversity), *((label_files[s], flags) for s, flags in sources.items())]
    joined = [[] for _ in tables]
    for line, rid, _ in index_rows:
        for (path, by_id), column in zip(tables, joined):
            if rid not in by_id:
                raise index_table.error(f"recording {rid!r} has no row in {path}", line)
            column.append(by_id[rid])
    values = np.array([row for *_, row in index_rows], dtype=float).reshape(-1, 3)
    species = np.array(joined[0], dtype=float)
    labels = {s: np.array(column, dtype=bool) for s, column in zip(sources, joined[1:])}
    rows = []
    failures = 0
    for j, index_name in enumerate(("aci", "adi", "ndsi")):
        for fname in filter_names:
            for source, source_labels in labels.items():
                try:
                    n, r = correlate(values[:, j], species, source_labels, CASE_STUDY_FILTERS[fname])
                    rows.append([index_name, fname, source, n, r, ""])
                except ValueError as exc:
                    failures += 1
                    rows.append([index_name, fname, source, "", "", str(exc)])
    write_table(out, ["index", "filter", "source", "n", "r", "note"], [list(zip(*rows))])
    if failures:
        _log(f"case-study: {failures} correlation(s) could not be computed")
        sys.exit(1)


if __name__ == "__main__":
    main()
