"""Runs soundscapekit CLI commands one after another in one process.

run.py starts this file with the checkout's ``src/`` first on PYTHONPATH.
The worker imports the CLI, timing ``soundscapekit.audio_io`` (which pulls
in numpy and scipy.signal) and then the rest of ``soundscapekit.cli``, and
writes one JSON line with those times. Each request line
``{"args": [...], "trace": bool}`` then runs one command through the
click entry point, in this process, and is answered with one JSON line:
exit code, wall time, peak RSS so far and, for a traced command, the span
and count summary described in ``Tracer``. End of input ends the worker.
"""

import json
import sys
import time

_t0 = time.perf_counter()
import soundscapekit.audio_io  # noqa: E402

_t1 = time.perf_counter()
import soundscapekit.cli as cli  # noqa: E402

_t2 = time.perf_counter()

import functools  # noqa: E402
import itertools  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

#: Public functions wrapped in the traced run, by defining module. Each is
#: replaced in every soundscapekit module that binds it, so callers that
#: imported it by name (cli, synthmix) reach the wrapper too.
WRAPPED = {
    "audio_io": ("decode_wav", "resample", "write_wav_pcm16"),
    "features": ("stft_magnitude",),
    "indices": ("aci", "adi", "ndsi"),
    "synthmix": ("draw_recipe", "render_mix", "render_silence"),
    "scores": ("load_scores",),
    "decision": ("load_annotations", "apply_pda", "decide", "aggregate"),
    "evaluation": ("tune_thresholds", "curve", "evaluate", "stratify_errors"),
}

#: Threshold sweeps whose peak traced allocation is recorded.
SWEEPS = ("evaluation.curve", "evaluation.tune_thresholds")


def _count(tracer, name, args, result):
    c = tracer.counts
    if name == "audio_io.decode_wav":
        tracer.decoded.add(str(args[0]))
    elif name == "audio_io.resample" and result is not args[0]:
        c["audio_io.resampled_samples"] += len(result.samples)
    elif name == "features.stft_magnitude":
        c["features.stft_frames"] += result.n_frames
    elif name == "synthmix.render_mix":
        c["synthmix.layers"] += len(args[0].layers)
    elif name == "scores.load_scores":
        c["scores.rows"] += sum(m.n_windows for m in result)
        c["scores.recordings"] += len(result)
    elif name == "evaluation.curve":
        c["evaluation.curve_thresholds"] += len(result.points)
    elif name == "evaluation.tune_thresholds":
        # candidates are the distinct scores plus the 0.0 sentinel
        c["evaluation.curve_thresholds"] += sum(len(set(map(float, s)) | {0.0}) for s in args[0].values())


class Tracer:
    """Spans (id, name, start, end, parent, thread) around the wrapped functions."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.decoded = set()
        self.sweep_peak_bytes = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore = []

    def span(self, name, fn, *args, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def _wrap(self, name, fn):
        sweep = name in SWEEPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sweep:
                tracemalloc.start()
            try:
                result = self.span(name, fn, *args, **kwargs)
            finally:
                if sweep:
                    self.sweep_peak_bytes = max(self.sweep_peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            _count(self, name, args, result)
            return result

        return wrapper

    def install(self):
        package = [m for n, m in sys.modules.items() if n == "soundscapekit" or n.startswith("soundscapekit.")]
        for mod, names in WRAPPED.items():
            home = sys.modules[f"soundscapekit.{mod}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{mod}.{fname}", original)
                for m in package:
                    if getattr(m, fname, None) is original:
                        setattr(m, fname, wrapper)
                        self._restore.append((m, fname, original))

    def uninstall(self):
        for m, fname, original in reversed(self._restore):
            setattr(m, fname, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls and self seconds (duration minus wrapped children)."""
        children = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        per_name = {}
        for sid, name, start, end, _, _ in self.spans:
            agg = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += end - start - children[sid]
        return {
            "spans": per_name,
            "counts": dict(self.counts),
            "decoded_files": sorted(self.decoded),
            "sweep_peak_bytes": self.sweep_peak_bytes,
        }


def run_command(args) -> int:
    try:
        cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command, reported with its traceback
        traceback.print_exc()
        return 1
    return 0


def main():
    proto = sys.stdout
    sys.stdout = sys.stderr  # keep the protocol stream free of program output

    def reply(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    reply({
        "audio_io_import_s": _t1 - _t0,
        "cli_import_s": _t2 - _t1,
        "package": soundscapekit.__file__,
    })
    for line in sys.stdin:
        req = json.loads(line)
        summary = None
        if req.get("trace"):
            tracer = Tracer()
            tracer.install()
            try:
                start = time.perf_counter()
                code = tracer.span("cli", run_command, req["args"])
                wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
            summary = tracer.summary()
        else:
            start = time.perf_counter()
            code = run_command(req["args"])
            wall = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        reply({"exit": code, "wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024.0, "trace": summary})


if __name__ == "__main__":
    main()
