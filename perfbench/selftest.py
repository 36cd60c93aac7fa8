"""Shows that the output checks catch wrong outputs.

Run from the repository root:

    python3 perfbench/selftest.py [--seed N]

It runs the real commands once (``indices --jobs 1``, ``mix`` at
``--jobs 1`` and ``--jobs 2``, ``tune``), confirms that the checks pass on
their outputs, then damages a copy of each output in one small way and
confirms that the check meant to catch that damage fails:

- NDSI of a recomputed recording with its sign flipped,
- NDSI of the bio-band tone with its sign flipped,
- one manifest flag flipped,
- one byte flipped in one clip of the parallel corpus,
- a tuned threshold moved to the next candidate of the sweep.

Exit status 0 means every damaged output was caught.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import run
from checks import CLASSES, check_indices, check_mix, check_tune, same_bytes, sweep, own_truth


def _failing(results) -> set:
    return {name for name, ok, _ in results if not ok}


def _flip_ndsi(src: Path, dst: Path, stem: str) -> None:
    lines = src.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(stem + ","):
            cells = line.rstrip("\n").split(",")
            cells[3] = repr(-float(cells[3]))
            lines[i] = ",".join(cells) + "\n"
    dst.write_text("".join(lines))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    seed = ap.parse_args(argv).seed
    root = run.HERE.parent
    work = root / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    cases = []  # (description, check results on clean output, on damaged output, name of the check that must fail)
    try:
        with open(work / "worker.log", "w") as log:
            idx = run.IndicesBatch(seed, work / "indices")
            mix = run.MixCorpus(seed, work / "mix")
            tune = run.TuneEvaluate(seed, work / "tune")
            rd = work / "out"
            rd.mkdir()
            idx_cmd = idx.commands(rd)[0]
            mix_cmds = mix.commands(rd)
            tune_cmd = tune.commands(rd)[0]
            with run.Worker(root, log) as w:
                for cmd in (idx_cmd, *mix_cmds, tune_cmd):
                    if w.run(cmd.args)["exit"] != 0:
                        print(f"selftest: {cmd.label} failed; see the worker log", file=sys.stderr)
                        return 1

        clean = check_indices(idx_cmd.out, idx.spec, idx.sample)
        stem = idx.sample[0].stem
        _flip_ndsi(idx_cmd.out, rd / "flip_rec.csv", stem)
        cases.append(("NDSI sign flipped on a recomputed recording", clean,
                      check_indices(rd / "flip_rec.csv", idx.spec, idx.sample), f"{stem} ndsi matches own recomputation"))
        _flip_ndsi(idx_cmd.out, rd / "flip_tone.csv", "zz_bio_tone")
        cases.append(("NDSI sign flipped on the bio-band tone", clean,
                      check_indices(rd / "flip_tone.csv", idx.spec, []), "bio-band tone gives NDSI = +1"))

        serial, parallel = mix_cmds[0].out, mix_cmds[1].out
        clean = check_mix(serial, mix.spec.counts)
        damaged = rd / "mix_flag"
        shutil.copytree(serial, damaged)
        rows = (damaged / "manifest.csv").read_text().splitlines(keepends=True)
        cells = rows[1].split(",")
        cells[1] = "0" if cells[1] == "1" else "1"
        rows[1] = ",".join(cells)
        (damaged / "manifest.csv").write_text("".join(rows))
        cases.append(("one manifest flag flipped", clean, check_mix(damaged, mix.spec.counts),
                      "manifest flags match each filename's combination, silence = 1 only for S"))
        name = "serial and parallel corpora are byte-identical"
        clips = sorted(parallel.glob("*.wav"))
        clip = clips[len(clips) // 2]
        data = bytearray(clip.read_bytes())
        data[len(data) // 2] ^= 0x01
        clean_pair = [same_bytes(name, serial, parallel)]
        clip.write_bytes(bytes(data))
        cases.append(("one byte flipped in the parallel corpus", clean_pair, [same_bytes(name, serial, parallel)], name))

        clean = check_tune(tune_cmd.out, tune.spec)
        truth = own_truth(tune.spec)
        frag = json.loads(tune_cmd.out.read_text())
        cls = CLASSES[0]
        cands = sweep(tune.spec.max_scores[:, 0], truth[:, 0])[0]
        here = int(np.flatnonzero(cands == frag["thresholds"]["per_class"][cls])[0])
        frag["thresholds"]["per_class"][cls] = float(cands[here + 1])
        moved = rd / "moved.json"
        moved.write_text(json.dumps(frag))
        cases.append(("tuned threshold moved to the next candidate", clean, check_tune(moved, tune.spec),
                      f"tuned {cls} threshold equals own sweep"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((root / ".bench_work").iterdir()):
            (root / ".bench_work").rmdir()

    ok = True
    for desc, clean, damaged, must_fail in cases:
        caught = not _failing(clean) and must_fail in _failing(damaged)
        ok &= caught
        print(f"{'CAUGHT' if caught else 'MISSED'}  {desc}: clean output fails {sorted(_failing(clean))}, "
              f"damaged output fails {sorted(_failing(damaged))}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
