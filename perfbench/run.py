"""soundscapekit benchmark: three batch workloads through the real CLI.

Run from the repository root:

    python3 perfbench/run.py --workload indices_batch --seed 1 --seconds 25 --trace 0

``--workload all`` (the default) runs every workload, and leaving out
``--trace`` runs each one timed and then traced. Inputs are generated from
the seed before anything is timed. Each round starts a fresh worker
process (``worker.py``), which imports the CLI and runs the workload's two
commands through the click entry point, one after another; rounds repeat
until ``--seconds`` of rounds have run. The first round's outputs are
checked against computations made apart from the program (``checks.py``)
and every later round must reproduce them byte for byte. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from the traced run with ``--trace 1``). See README.md for what each metric
means and which workload should move it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

class WorkerFailed(RuntimeError):
    pass


class Worker:
    """A worker process; ``setup_s`` is the time from spawn until its CLI import is done."""

    def __init__(self, root: Path, log):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=root, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
        )
        try:
            self.ready = self._read()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start
        if not Path(self.ready["package"]).resolve().is_relative_to(root / "src"):
            self.close()
            raise WorkerFailed(f"imported soundscapekit from {self.ready['package']}, not {root / 'src'}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerFailed(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, args, trace=False) -> dict:
        self.proc.stdin.write(json.dumps({"args": [str(a) for a in args], "trace": trace}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class Command:
    label: str
    args: list
    out: Path  # output file or directory
    items: int  # operations the command attempts: files analysed, clips rendered, or 1 command


class IndicesBatch:
    name = "indices_batch"
    serial = 1  # the first command is the serial one; the second runs at --jobs 2
    aliases = ("wall_s", "wall_jobs2_s")

    def __init__(self, seed: int, work: Path):
        self.spec = inputs.make_indices_inputs(seed, work / "inputs")
        # recomputed by the checks: one file that needs resampling, one that does not, both tones
        rng = np.random.default_rng(seed)
        rates = dict(zip(self.spec.files, inputs.RECORDING_RATES))  # the rec_* files sort first
        resampled = [p for p, r in rates.items() if r != checks.TARGET_RATE]
        native = [p for p, r in rates.items() if r == checks.TARGET_RATE]
        tones = [p for p in self.spec.files if self.spec.analytic.get(p.stem) in ("bio", "anthro")]
        self.sample = [resampled[rng.integers(len(resampled))], native[rng.integers(len(native))], *tones]

    def commands(self, rd: Path) -> list:
        return [
            Command(f"indices --jobs {j}",
                    ["indices", self.spec.audio_dir, "--out", rd / f"jobs{j}.csv", "--jobs", j],
                    rd / f"jobs{j}.csv", len(self.spec.files))
            for j in (1, 2)
        ]

    def done(self, cmd: Command) -> int:
        try:
            rows = checks.read_indices_csv(cmd.out)
        except (OSError, ValueError):
            return 0
        return len(set(rows) & {p.stem for p in self.spec.files})

    def check(self, cmds: list) -> list:
        out = checks.check_indices(cmds[0].out, self.spec, self.sample)
        if len(cmds) > 1:
            out.append(checks.same_bytes("--jobs 1 and --jobs 2 CSVs are byte-identical", cmds[0].out, cmds[1].out))
        return out


class MixCorpus:
    name = "mix_corpus"
    serial = 1
    aliases = ("wall_s", "wall_jobs2_s")

    def __init__(self, seed: int, work: Path):
        self.spec = inputs.make_mix_inputs(seed, work / "inputs")
        self.clips = sum(self.spec.counts.values())

    def commands(self, rd: Path) -> list:
        counts = [a for combo, n in self.spec.counts.items() for a in ("--count", f"{combo}={n}")]
        return [
            Command(f"mix --jobs {j}",
                    ["mix", self.spec.pool_manifest, rd / f"jobs{j}", "--seed", self.spec.seed, *counts, "--jobs", j],
                    rd / f"jobs{j}", self.clips)
            for j in (1, 2)
        ]

    def done(self, cmd: Command) -> int:
        try:
            with open(cmd.out / "manifest.csv") as fh:
                return max(0, sum(1 for _ in fh) - 1)
        except OSError:
            return 0

    def check(self, cmds: list) -> list:
        out = checks.check_mix(cmds[0].out, self.spec.counts)
        if len(cmds) > 1:
            out.append(checks.same_bytes("serial and parallel corpora are byte-identical", cmds[0].out, cmds[1].out))
        return out


class TuneEvaluate:
    name = "tune_evaluate"
    serial = 2  # tune, then evaluate with the tuned thresholds
    aliases = ("tune_s", "evaluate_s")

    def __init__(self, seed: int, work: Path):
        self.spec = inputs.make_tune_inputs(seed, work / "inputs")

    def commands(self, rd: Path) -> list:
        s = self.spec
        thr = rd / "thresholds.json"
        return [
            Command("tune", ["tune", s.scores, s.annotations, "--config", s.config, "--out", thr], thr, 1),
            Command("evaluate", ["evaluate", s.scores, s.annotations, "--config", s.config,
                                 "--thresholds", thr, "--out", rd / "report"], rd / "report", 1),
        ]

    def done(self, cmd: Command) -> int:
        return 1

    def check(self, cmds: list) -> list:
        return checks.check_tune(cmds[0].out, self.spec) + checks.check_evaluate(cmds[1].out, cmds[0].out, self.spec)


WORKLOADS = {w.name: w for w in (IndicesBatch, MixCorpus, TuneEvaluate)}

END_TO_END = (
    ("setup_s", "s"),
    ("cmd1_s", "s"),
    ("cmd2_s", "s"),
    ("peak_rss_mb", "MB"),
)

_TIMED_SPANS = (
    "audio_io.decode_wav", "audio_io.resample", "audio_io.write_wav_pcm16", "features.stft_magnitude",
    "indices.aci", "indices.adi", "indices.ndsi", "synthmix.draw_recipe", "synthmix.render_silence",
    "scores.load_scores", "decision.load_annotations", "decision.apply_pda", "decision.decide",
    "decision.aggregate", "evaluation.tune_thresholds", "evaluation.curve", "evaluation.evaluate",
    "evaluation.stratify_errors",
)
PER_LAYER = (
    ("audio_io.import_s", "s"),
    ("cli.import_s", "s"),
    *((f"{name}_s", "s") for name in _TIMED_SPANS),
    ("synthmix.render_mix_self_s", "s"),
    ("cli.self_s", "s"),
    ("audio_io.decode_wav_calls", "count"),
    ("audio_io.decoded_files", "count"),
    ("audio_io.decodes_per_file", "calls/file"),
    ("audio_io.resampled_samples", "count"),
    ("features.stft_frames", "count"),
    ("synthmix.layers", "count"),
    ("scores.rows", "count"),
    ("decision.aggregate_per_recording", "calls/rec"),
    ("evaluation.curve_thresholds", "count"),
    ("evaluation.sweep_peak_mb", "MB"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(traced: list, plain_wall: float) -> dict:
    """Per-layer figures of one round from the traced commands' summaries."""
    spans, counts, decoded = {}, {}, set()
    sweep_peak, wall = 0, 0.0
    for res in traced:
        t = res["trace"]
        for name, agg in t["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += agg["calls"]
            acc["self_s"] += agg["self_s"]
        for name, v in t["counts"].items():
            counts[name] = counts.get(name, 0) + v
        decoded.update(t["decoded_files"])
        sweep_peak = max(sweep_peak, t["sweep_peak_bytes"])
        wall += res["wall_s"]
    self_s = lambda name: spans.get(name, {}).get("self_s", 0.0)
    calls = lambda name: spans.get(name, {}).get("calls", 0)
    m = {f"{name}_s": self_s(name) for name in _TIMED_SPANS}
    m["synthmix.render_mix_self_s"] = self_s("synthmix.render_mix")
    m["cli.self_s"] = self_s("cli")
    m["audio_io.decode_wav_calls"] = calls("audio_io.decode_wav")
    m["audio_io.decoded_files"] = len(decoded)
    m["audio_io.decodes_per_file"] = calls("audio_io.decode_wav") / len(decoded) if decoded else 0.0
    for name in ("audio_io.resampled_samples", "features.stft_frames", "synthmix.layers", "scores.rows",
                 "evaluation.curve_thresholds"):
        m[name] = counts.get(name, 0)
    recs = counts.get("scores.recordings", 0)
    m["decision.aggregate_per_recording"] = calls("decision.aggregate") / recs if recs else 0.0
    m["evaluation.sweep_peak_mb"] = sweep_peak / 2**20
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = plain_wall
    m["trace.overhead_s"] = wall - plain_wall
    m["_accounted_s"] = sum(a["self_s"] for a in spans.values())
    return m


def measure(workload, root: Path, work: Path, seconds: float, trace: bool, log) -> dict:
    samples = {}
    add = lambda name, v: samples.setdefault(name, []).append(v)

    def spawn():
        w = Worker(root, log)
        add("setup_s", w.setup_s)
        add("audio_io.import_s", w.ready["audio_io_import_s"])
        add("cli.import_s", w.ready["cli_import_s"])
        return w

    Worker(root, log).close()  # untimed warm-up: bytecode and file caches

    def commands_in(d: Path) -> list:
        d.mkdir(parents=True)
        return workload.commands(d)

    attempted = failed = rounds = 0
    measured = 0.0
    results, reference = [], None
    while rounds == 0 or measured < seconds:
        rd = work / f"round{rounds}"
        t0 = time.perf_counter()
        with spawn() as w:
            if trace:
                plain = commands_in(rd / "plain")[: workload.serial]
                traced = commands_in(rd / "traced")[: workload.serial]
                order = [("plain", plain, False), ("traced", traced, True)]
                if rounds % 2:  # alternate which goes first, so warm caches favour neither
                    order.reverse()
                res = {label: [w.run(c.args, trace=t) for c in cmds] for label, cmds, t in order}
                ran = [*zip(plain, res["plain"]), *zip(traced, res["traced"])]
                for name, v in layer_metrics(res["traced"], sum(r["wall_s"] for r in res["plain"])).items():
                    add(name, v)
                outputs = [plain, traced]
            else:
                cmds = commands_in(rd)
                ran = [(c, w.run(c.args)) for c in cmds]
                add("cmd1_s", ran[0][1]["wall_s"])
                add("cmd2_s", ran[1][1]["wall_s"])
                add("peak_rss_mb", ran[workload.serial - 1][1]["maxrss_mb"])
                outputs = [cmds]
        measured += time.perf_counter() - t0

        for c, r in ran:
            attempted += c.items
            lost = c.items - workload.done(c)
            failed += max(lost, 1) if r["exit"] else lost
        prints = [[checks.fingerprint(c.out) for c in cmds] for cmds in outputs]
        if reference is None:
            results = workload.check(outputs[0])
            reference = prints.pop(0)
        for p in prints:  # later rounds, and traced next to plain outputs
            results.append(checks.outcome(f"round {rounds} outputs equal the first outputs byte for byte",
                                          p == reference))
        shutil.rmtree(rd)
        rounds += 1

    if trace:
        acc = statistics.median(samples["_accounted_s"]) / statistics.median(samples["trace.wall_s"])
        print(f"  traced wall {statistics.median(samples['trace.wall_s']):.4f} s; per-layer self times "
              f"plus cli.self_s account for {100 * acc:.3f}% of it", file=sys.stderr)
    names = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in names}
    return {"rounds": rounds, "checks": results, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, work)
        with open(work / "worker.log", "w") as log:
            try:
                res = measure(workload, root, work, seconds, trace, log)
            except WorkerFailed:
                log.flush()
                sys.stderr.write((work / "worker.log").read_text()[-4000:])
                raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((root / ".bench_work").iterdir()):
            (root / ".bench_work").rmdir()

    passed = sum(ok for _, ok, _ in res["checks"])
    mode = "traced" if trace else "timed"
    print(f"{name} ({mode}, seed {seed}): {res['rounds']} round(s), attempted {res['attempted']}, "
          f"failed {res['failed']}, checks passed {passed}/{len(res['checks'])}", file=sys.stderr)
    for check_name, ok, detail in res["checks"]:
        if not ok:
            print(f"  CHECK FAILED: {check_name}: {detail}", file=sys.stderr)
    for metric, v in res["metrics"].items():
        print(f"  {metric:<36} {v['value']:.6g} {v['unit']}", file=sys.stderr)
    if not trace:
        times = [res["metrics"][f"cmd{i}_s"]["value"] for i in (1, 2)]
        named = dict(zip(workload.aliases, times), wall_s=sum(times[: workload.serial]))
        print("  = " + ", ".join(f"{k} {v:.6g} s" for k, v in named.items()), file=sys.stderr)
    return {
        "correct": passed == len(res["checks"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics; 1: per-layer metrics from the traced run; default both")
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "soundscapekit" / "cli.py").is_file():
        print(f"perfbench: no soundscapekit sources under {root / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    for name in names:
        for trace in modes:
            # numpy seeds must be non-negative; this leaves every seed >= 0 as it is
            result = run_workload(name, args.seed % 2**63, args.seconds, trace, root)
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
