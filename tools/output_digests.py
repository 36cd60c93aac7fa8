"""Print one SHA-256 per output file of every soundscapekit command variant.

Run from the repository root:

    python3 tools/output_digests.py [--seed 3] [--src path/to/src] > digests.txt

The inputs are the seeded sets of ``perfbench/inputs.py`` (recordings, a
source pool, score and annotation CSVs for 10 000 recordings) plus
``tests/data/cst_fixture``, built in a temporary directory. Each variant
runs the CLI in a fresh process with ``--src`` (default: this checkout's
``src/``) first on ``PYTHONPATH``:

- ``indices`` serial and ``--jobs 2``;
- ``mix`` serial and ``--jobs 2``, with ``peak`` and with ``rms`` normalisation;
- ``mix`` serial and ``--jobs 2`` of a pool that holds, per class, a
  1-sample, a 21-sample and an exactly 5 s WAV at 32 kHz, so that sources
  are looped without a crossfade, looped with one, and used as they are;
- ``tune`` with ``f1`` and ``youden``, each with and without ``--grid``;
- ``evaluate`` with the config's policy and with the tuned ``f1`` fragment;
- both of the above on ``bench-quoted``: the bench score and annotation
  CSVs rewritten with every ``recording_id`` quoted and ``\n`` line ends,
  so that they are read row by row as CSV rather than split into columns;
- ``evaluate`` of the bench inputs with ``"pda_measure": "longest-segment"``;
- ``evaluate`` of the bench scores against weak (flag) labels, under a
  per-class policy that needs 2 windows above the biophony threshold, and
  ``tune`` on those weak labels;
- ``case-study`` with and without ``--model-labels``;
- failures whose one-line error must not change: ``evaluate`` with a count
  above the windows of the shortest recording, ``case-study`` with a
  recording missing from the diversity CSV, ``tune`` with a ``nan`` window
  start, ``tune`` with a recording whose window starts are 0, 10, 25 (an
  error naming the path alone), ``evaluate`` with a window start spelt
  ``1_0.0``, which ``float`` would take (an error naming its line),
  ``evaluate`` with a score of ``1.5`` (an error naming its line),
  ``evaluate`` with annotations holding an unknown class on line 3 and an
  ``inf`` end on line 5 (an error naming line 3), ``evaluate`` with the
  fixture's scores less the ``rec03`` rows and ``tune`` with a weak table
  holding one id more than the fixture's scores (errors naming the
  annotation table's line of the recording without scores), ``evaluate``
  with an ``--out`` under a regular file, ``mix`` with ``--count BA=1`` and with
  ``--count A=-1`` (usage errors, exit 2), ``mix`` of a pool without
  geophony with ``--count B=2 --count G=1``, ``mix --jobs 2`` of a pool with a geophony
  entry that is not a WAV, which fails after some files are rendered,
  ``indices`` of a directory holding one
  good WAV and one ``.wav`` file that is not RIFF, and ``indices`` of one
  good WAV and an 8-sample WAV at 200 003 Hz, whose resampling filter is
  past the tap limit, and ``indices`` of one good WAV and one ``.wav`` file
  that is not RIFF in a directory whose name holds the byte ``\\xe9``, which
  is not UTF-8 and shows as that escape in every locale (the three CSVs go
  to standard output, which is not kept).

Each output line is ``<sha256>  <variant>/<file>``, sorted, after one
``# exit <code> <variant>`` line per command, so the listings of two
checkouts (or two runs of one) can be compared with ``diff``. Each
variant's stderr is digested as ``<variant>/stderr``, with the temporary
directory written as ``<tmp>``. The script exits 1 when a serial and a
``--jobs 2`` run of the same command write different files, when a
``bench-quoted`` variant writes other files than its ``bench`` twin, or when
a failure leaves its output path (even an empty directory) behind.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import wave
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import inputs  # noqa: E402

FIXTURE = REPO / "tests" / "data" / "cst_fixture"
#: Weak labels cycled over the indices recordings, so every case-study filter keeps >= 2 of them.
LABEL_CYCLE = ("B", "AB", "BG", "ABG")


def run(src: Path, args: list):
    """The exit code and stderr of one CLI run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-m", "soundscapekit.cli", *map(str, args)]
    done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return done.returncode, done.stderr


def digests(root: Path) -> dict:
    """{relative path: sha256} of every file under root (or of root itself)."""
    files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
    return {str(p.relative_to(root.parent)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def write_flags(path, ids, combos, silence):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["recording_id", *inputs.CLASSES] + (["silence"] if silence else []))
        for rid, combo in zip(ids, combos):
            flags = [int(letter in combo) for letter in "ABG"]  # A, B, G: the classes in order
            w.writerow([rid, *flags] + ([int(not any(flags))] if silence else []))


def quoted_ids(src: Path, dst: Path) -> Path:
    """dst: the CSV src with every recording_id (its first cell) quoted and \\n line ends."""
    header, *rows = src.read_text().splitlines()
    dst.write_text("".join(line + "\n" for line in [header, *('"' + r.replace(",", '",', 1) for r in rows)]))
    return dst


def tiny_pool(seed: int, root: Path) -> Path:
    """A pool manifest whose every class holds a 1-sample, a 21-sample and a 160 000-sample WAV of noise at 32 kHz."""
    root.mkdir(parents=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 6]))
    rows = ["file,class\n"]
    for cls in inputs.CLASSES:
        for n in (1, 21, 160_000):
            with wave.open(str(root / f"{cls}-{n}.wav"), "wb") as w:
                w.setnchannels(1)
                w.setsampwidth(2)
                w.setframerate(32000)
                w.writeframes(rng.integers(-16000, 16000, n).astype("<i2").tobytes())
            rows.append(f"{cls}-{n}.wav,{cls}\n")
    (root / "pool.csv").write_text("".join(rows))
    return root / "pool.csv"


def variants(seed: int, work: Path):
    """(variant name, CLI args, output path) in run order; later commands may read earlier outputs."""
    ind = inputs.make_indices_inputs(seed, work / "in" / "indices")
    mix = inputs.make_mix_inputs(seed, work / "in" / "mix")
    tune_sets = {"bench": inputs.make_tune_inputs(seed, work / "in" / "tune")}
    out = work / "out"

    for jobs in (1, 2):
        csv_out = out / f"indices-jobs{jobs}.csv"
        yield f"indices-jobs{jobs}", ["indices", ind.audio_dir, "--jobs", jobs, "--out", csv_out], csv_out

    counts = [a for combo, n in mix.counts.items() for a in ("--count", f"{combo}={n}")]
    for norm in ("peak", "rms"):
        cfg = work / "in" / f"mix-{norm}.json"
        cfg.write_text(json.dumps({"mixer": {"normalization": norm}}))
        for jobs in (1, 2):
            name = f"mix-{norm}-jobs{jobs}"
            yield name, ["mix", mix.pool_manifest, out / name, "--seed", mix.seed, *counts, "--config", cfg,
                         "--jobs", jobs], out / name

    tiny = tiny_pool(seed, work / "in" / "mix-tiny")
    for jobs in (1, 2):
        name = f"mix-tiny-jobs{jobs}"
        yield name, ["mix", tiny, out / name, "--seed", seed, "--count", "A=2", "--count", "B=2", "--count", "G=2",
                     "--count", "ABG=2", "--jobs", jobs], out / name

    sets = {name: (s.scores, s.annotations, ["--config", s.config]) for name, s in tune_sets.items()}
    bench = tune_sets["bench"]
    sets["bench-quoted"] = (quoted_ids(bench.scores, work / "in" / "scores-quoted.csv"),
                            quoted_ids(bench.annotations, work / "in" / "annotations-quoted.csv"),
                            ["--config", bench.config])
    sets["cst"] = (FIXTURE / "scores.csv", FIXTURE / "annotations.csv", [])
    for name, (scores, anns, config) in sets.items():
        for objective in ("f1", "youden"):
            for grid in ([], ["--grid"]):
                variant = f"tune-{name}-{objective}" + ("-grid" if grid else "")
                yield variant, ["tune", scores, anns, *config, "--objective", objective, *grid,
                                "--out", out / f"{variant}.json"], out / f"{variant}.json"
        yield f"evaluate-{name}-config", ["evaluate", scores, anns, *config, "--out", out / f"evaluate-{name}-config"], \
            out / f"evaluate-{name}-config"
        yield f"evaluate-{name}-tuned", ["evaluate", scores, anns, *config, "--thresholds", out / f"tune-{name}-f1.json",
                                         "--out", out / f"evaluate-{name}-tuned"], out / f"evaluate-{name}-tuned"

    longest = work / "in" / "longest.json"
    longest.write_text(json.dumps({**json.loads(bench.config.read_text()), "pda_measure": "longest-segment"}))
    yield "evaluate-bench-longest", ["evaluate", bench.scores, bench.annotations, "--config", longest,
                                     "--out", out / "evaluate-bench-longest"], out / "evaluate-bench-longest"

    weak, weak_cfg = work / "in" / "weak-labels.csv", work / "in" / "weak-counts.json"
    annotated = ["".join(letter for letter, cls in zip("ABG", inputs.CLASSES) if cls in segs)
                 for segs in bench.raw_segments]
    write_flags(weak, bench.recording_ids, annotated, silence=False)
    cfg = json.loads(bench.config.read_text())
    cfg["thresholds"] = {"mode": "per-class", "per_class": dict(zip(inputs.CLASSES, (0.6, 0.55, 0.65))),
                         "counts": {"biophony": 2}}
    weak_cfg.write_text(json.dumps(cfg))
    yield "evaluate-bench-weak-counts", ["evaluate", bench.scores, weak, "--config", weak_cfg,
                                         "--out", out / "evaluate-bench-weak-counts"], out / "evaluate-bench-weak-counts"
    yield "tune-bench-weak", ["tune", bench.scores, weak, "--config", bench.config,
                              "--out", out / "tune-bench-weak.json"], out / "tune-bench-weak.json"

    ids = [p.stem for p in ind.files]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    truth = [LABEL_CYCLE[i % len(LABEL_CYCLE)] for i in range(len(ids))]
    model = [LABEL_CYCLE[i] for i in rng.integers(0, len(LABEL_CYCLE), size=len(ids))]
    diversity, labels, decisions = work / "in" / "diversity.csv", work / "in" / "labels.csv", work / "in" / "model.csv"
    with open(diversity, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["recording_id", "species_count"])
        w.writerows(zip(ids, rng.integers(0, 40, size=len(ids)).tolist()))
    write_flags(labels, ids, truth, silence=False)
    write_flags(decisions, ids, model, silence=True)
    indices_csv = out / "indices-jobs1.csv"
    yield "case-study", ["case-study", indices_csv, diversity, labels, "--out", out / "case-study.csv"], \
        out / "case-study.csv"
    yield "case-study-model", ["case-study", indices_csv, diversity, labels, "--model-labels", decisions,
                               "--out", out / "case-study-model.csv"], out / "case-study-model.csv"

    yield from failures(work, diversity, labels, indices_csv, mix.pool_manifest, ind.files[0])


def failures(work: Path, diversity: Path, labels: Path, indices_csv: Path, pool: Path, wav: Path):
    """Variants that must exit 1 (2 for a bad option) with one error line per failure and write no output file."""
    out, fixture = work / "out", [FIXTURE / "scores.csv", FIXTURE / "annotations.csv"]
    too_many = work / "in" / "count-above-windows.json"
    too_many.write_text(json.dumps({"thresholds": {"mode": "global", "global": 0.5, "counts": {"biophony": 7}}}))
    yield "fail-evaluate-count", ["evaluate", *fixture, "--config", too_many, "--out", out / "fail-evaluate-count"], \
        out / "fail-evaluate-count"

    short = work / "in" / "diversity-short.csv"
    short.write_text("".join(diversity.read_text().splitlines(keepends=True)[:-1]))
    yield "fail-case-study-missing", ["case-study", indices_csv, short, labels,
                                      "--out", out / "fail-case-study-missing.csv"], out / "fail-case-study-missing.csv"

    header, *rows = fixture[0].read_text().splitlines(keepends=True)

    def scores_with(name, k, row):
        """The fixture's score CSV with its row k replaced."""
        path = work / "in" / name
        path.write_text("".join([header, *rows[:k], row, *rows[k + 1:]]))
        return path

    rid, _, scores = rows[0].split(",", 2)
    nan_start = scores_with("scores-nan-start.csv", 0, f"{rid},nan,{scores}")
    yield "fail-tune-nan-start", ["tune", nan_start, fixture[1], "--out", out / "fail-tune-nan-start.json"], \
        out / "fail-tune-nan-start.json"

    spacing = scores_with("scores-spacing.csv", 2, rows[2].replace(",20.0,", ",25.0,", 1))  # starts 0, 10, 25, 30
    yield "fail-tune-spacing", ["tune", spacing, fixture[1], "--out", out / "fail-tune-spacing.json"], \
        out / "fail-tune-spacing.json"

    rid, _, scores = rows[1].split(",", 2)
    underscore = scores_with("scores-underscore-start.csv", 1, f"{rid},1_0.0,{scores}")  # float() reads 10.0
    yield "fail-evaluate-underscore-start", ["evaluate", underscore, fixture[1],
                                             "--out", out / "fail-evaluate-underscore-start"], \
        out / "fail-evaluate-underscore-start"

    rid, start, _, scores = rows[1].split(",", 3)
    above_one = scores_with("scores-above-one.csv", 1, f"{rid},{start},1.5,{scores}")
    yield "fail-evaluate-above-one", ["evaluate", above_one, fixture[1], "--out", out / "fail-evaluate-above-one"], \
        out / "fail-evaluate-above-one"

    without_rec03 = work / "in" / "scores-without-rec03.csv"  # rec03 stays annotated
    without_rec03.write_text("".join([header, *(r for r in rows if not r.startswith("rec03,"))]))
    yield "fail-evaluate-unscored", ["evaluate", without_rec03, fixture[1], "--out", out / "fail-evaluate-unscored"], \
        out / "fail-evaluate-unscored"

    ids = list(dict.fromkeys(r.split(",", 1)[0] for r in rows))
    weak_extra = work / "in" / "weak-extra-id.csv"  # rec99, on line 4, has no scores
    write_flags(weak_extra, [*ids[:2], "rec99", *ids[2:]],
                [LABEL_CYCLE[k % len(LABEL_CYCLE)] for k in range(len(ids) + 1)], silence=False)
    yield "fail-tune-unscored-weak", ["tune", fixture[0], weak_extra, "--out", out / "fail-tune-unscored-weak.json"], \
        out / "fail-tune-unscored-weak.json"

    ann_order = work / "in" / "annotations-order.csv"  # two bad rows: the first in file order is named
    ann_order.write_text("recording_id,class,start_s,end_s\nrec00,biophony,0,10\nrec00,traffic,0,10\n"
                         "rec01,geophony,5,20\nrec01,geophony,0,inf\n")
    yield "fail-evaluate-ann-order", ["evaluate", fixture[0], ann_order, "--out", out / "fail-evaluate-ann-order"], \
        out / "fail-evaluate-ann-order"

    blocked = diversity / "report"  # a directory under a regular file
    yield "fail-evaluate-unwritable", ["evaluate", *fixture, "--out", blocked], blocked

    for name, count in (("fail-mix-code", "BA=1"), ("fail-mix-negative", "A=-1")):
        yield name, ["mix", pool, out / name, "--count", count], out / name
    no_geophony = pool.with_name("pool-no-geophony.csv")  # beside the pool, whose file names are relative
    no_geophony.write_text("".join(r for r in pool.read_text().splitlines(keepends=True) if "geophony" not in r))
    yield "fail-mix-no-geophony", ["mix", no_geophony, out / "fail-mix-no-geophony", "--count", "B=2",
                                   "--count", "G=1"], out / "fail-mix-no-geophony"
    bad_source = pool.with_name("pool-bad-source.csv")  # a geophony entry that is not a WAV, met mid-render
    (pool.parent / "not-a-wav.wav").write_bytes(b"not a RIFF header")
    bad_source.write_text(pool.read_text() + "not-a-wav.wav,geophony\n")
    yield "fail-mix-bad-source", ["mix", bad_source, out / "fail-mix-bad-source", "--count", "B=30", "--count", "G=30",
                                  "--seed", 1, "--jobs", 2], out / "fail-mix-bad-source"

    not_wav = work / "in" / "indices-not-wav"
    not_wav.mkdir()
    shutil.copyfile(wav, not_wav / "a.wav")
    (not_wav / "b.wav").write_bytes(b"ID3\x04\x00\x00\x00\x00\x00\x00 an MP3 tag, not a RIFF header")
    yield "fail-indices-not-wav", ["indices", not_wav, "--out", "-"], out / "fail-indices-not-wav.csv"

    odd_rate = work / "in" / "indices-odd-rate"
    odd_rate.mkdir()
    shutil.copyfile(wav, odd_rate / "a.wav")
    with wave.open(str(odd_rate / "b.wav"), "wb") as w:  # 8 silent samples at a rate with a 4 000 061-tap filter
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(200_003)
        w.writeframes(bytes(16))
    yield "fail-indices-odd-rate", ["indices", odd_rate, "--out", "-"], out / "fail-indices-odd-rate.csv"

    odd_dir = Path(os.fsdecode(os.fsencode(work / "in") + b"/indices-dir\xe9"))
    odd_dir.mkdir()
    shutil.copyfile(wav, odd_dir / "a.wav")
    (odd_dir / "b.wav").write_bytes(b"not a RIFF header")
    yield "fail-indices-non-utf8-dir", ["indices", odd_dir, "--out", "-"], out / "fail-indices-non-utf8-dir.csv"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3, help="seed of the perfbench input sets")
    ap.add_argument("--src", type=Path, default=REPO / "src", help="directory holding the soundscapekit package")
    args = ap.parse_args(argv)
    src = args.src.resolve()

    listing, logs, exits, left = {}, {}, [], []
    with tempfile.TemporaryDirectory(prefix="output_digests_") as tmp:
        work = Path(tmp)
        (work / "out").mkdir()
        for name, cmd, output in variants(args.seed, work):
            code, stderr = run(src, cmd)
            exits.append(f"# exit {code} {name}")
            logs[f"{name}/stderr"] = hashlib.sha256(stderr.replace(bytes(work), b"<tmp>")).hexdigest()
            if output.exists():
                listing.update(digests(output))
                if name.startswith("fail-"):
                    left.append(name)

    mismatched = []  # serial and --jobs 2 runs, and quoted inputs and plain ones, must write the same files
    for one, other in (("-jobs1", "-jobs2"), ("-bench-quoted", "-bench")):
        for name in [v for v in listing if one in v]:
            twin = name.replace(one, other, 1)
            if listing[name] != listing.get(twin):
                mismatched.append(f"{name} != {twin}")
    listing.update(logs)
    print("\n".join(exits))
    for path in sorted(listing):
        print(f"{listing[path]}  {path}")
    for line in mismatched:
        print(f"output_digests: outputs differ: {line}", file=sys.stderr)
    for name in left:
        print(f"output_digests: failed variant {name} left its output behind", file=sys.stderr)
    return 1 if mismatched or left else 0


if __name__ == "__main__":
    sys.exit(main())
