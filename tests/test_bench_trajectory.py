"""tools/bench_trajectory.py on the committed BENCH_*.json files: one line per set and end-to-end metric."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_line_per_set_and_metric_with_the_ratio_of_the_medians():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_trajectory.py")],
                          capture_output=True, text=True, cwd=ROOT / "tests")
    assert done.returncode == 0, done.stderr
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]
    files = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    assert files
    expected = []
    for path in files:
        for s in json.loads(path.read_text(encoding="utf-8"))["sets"]:
            expected += [(path.name, s["set"], s["workload"], name, s["medians"][name])
                         for name in metrics if name in s["medians"]]
    lines = done.stdout.splitlines()
    assert len(lines) == len(expected)
    for line, (file, set_name, workload, name, medians) in zip(lines, expected):
        head, parent, change, ratio = line.rsplit(" ", 3)
        assert head == f"{file} {set_name} {workload} {name}"
        assert parent == f"parent={medians['parent_median']}" and change == f"change={medians['change_median']}"
        assert ratio == f"ratio={medians['change_median'] / medians['parent_median']:.4f}"
