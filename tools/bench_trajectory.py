"""Print the end-to-end benchmark trajectory recorded in the ``BENCH_*.json`` files.

Run from anywhere, with the standard library only:

    python3 tools/bench_trajectory.py

It reads every ``BENCH_<N>.json`` at the repository root,
in order of N (the change that recorded it). Each file holds sets: one
workload run as alternating pairs of the parent and the change tree in one
session, with the medians of each metric. For every set and every end-to-end
metric that ``BENCHMARK.json`` declares, one line reads

    BENCH_23.json final-tune_evaluate tune_evaluate cmd1_s parent=0.3113 change=0.2829 ratio=0.9088

where ratio is the change median over the parent median, to 4 decimals. A
set's ratio pairs two trees under one session's conditions; the medians of
different files came from different sessions and are not comparable, and
neither is a product of ratios across files.

Exit status 1 when there is no file to read.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_metrics() -> list:
    """The names of the end-to-end metrics that BENCHMARK.json declares, in its order."""
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]


def bench_files() -> list:
    """The BENCH_<N>.json files at the repository root, in order of N."""
    return sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.partition("_")[2]))


def trajectory(paths, metrics) -> list:
    """One line per set and end-to-end metric that the files (Paths) record, in file and set order."""
    lines = []
    for path in paths:
        for s in json.loads(path.read_text(encoding="utf-8"))["sets"]:
            for name in metrics:
                m = s["medians"].get(name)
                if m is not None:
                    parent, change = m["parent_median"], m["change_median"]
                    lines.append(f"{path.name} {s['set']} {s['workload']} {name} "
                                 f"parent={parent} change={change} ratio={change / parent:.4f}")
    return lines


def main() -> int:
    paths = bench_files()
    if not paths:
        print("no BENCH_*.json file to read", file=sys.stderr)
        return 1
    print("\n".join(trajectory(paths, end_to_end_metrics())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
