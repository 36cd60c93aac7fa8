"""The package runs on numpy and click alone: scipy serves only the tests and the benchmark; and it holds no
import or private name that nothing reads."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from soundscapekit.audio_io import AudioClip, write_wav_pcm16

from conftest import tone

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).parent / "data" / "cst_fixture"

#: Makes any import of scipy fail, then runs the CLI with the remaining arguments.
NO_SCIPY = """
import runpy, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, NoScipy())
sys.argv = ["soundscapekit", *sys.argv[1:]]
runpy.run_module("soundscapekit.cli", run_name="__main__")
"""


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=120)


def test_importing_the_cli_loads_no_scipy():
    done = python("-c", "import sys, soundscapekit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_command_runs_with_scipy_blocked(tmp_path):
    audio = tmp_path / "audio"
    audio.mkdir()
    for rate in (48000, 44100, 22050):  # three resampling paths to 32 kHz
        write_wav_pcm16(audio / f"r{rate}.wav", AudioClip(samples=tone(3000, 1.0, rate, amp=0.3), sample_rate_hz=rate))
    pool = tmp_path / "pool.csv"
    pool.write_text("file,class\r\n" + "".join(f"audio/r{r}.wav,{c}\r\n" for r, c in
                                                 ((48000, "anthropophony"), (44100, "biophony"), (22050, "geophony"))))
    scores, annotations = FIXTURES / "scores.csv", FIXTURES / "annotations.csv"
    commands = [
        ["indices", audio, "--out", tmp_path / "idx.csv"],
        ["mix", pool, tmp_path / "corpus", "--count", "ABG=1", "--count", "S=1"],
        ["tune", scores, annotations, "--out", tmp_path / "t.json"],
        ["evaluate", scores, annotations, "--thresholds", tmp_path / "t.json", "--out", tmp_path / "report"],
    ]
    for args in commands:
        done = python("-c", NO_SCIPY, *args)
        assert done.returncode == 0, (args[0], done.stderr)
    assert len((tmp_path / "idx.csv").read_text().splitlines()) == 3 + 1 + 3  # comments, header, rows
    assert sorted(p.suffix for p in (tmp_path / "corpus").iterdir()) == [".csv", ".wav", ".wav"]
    assert json.loads((tmp_path / "t.json").read_text())["thresholds"]["mode"]
    assert (tmp_path / "report" / "report.json").exists()


def toml_strings(section, key):
    """The strings of ``key = [...]`` under [section] of pyproject.toml, read as text (no tomllib on Python 3.10)."""
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    body = text.split(f"\n[{section}]\n", 1)[1].split("\n[", 1)[0]
    return re.findall(r'"([^"]+)"', re.search(rf"^{key} = \[(.*?)\]", body, re.M | re.S).group(1))


def test_pyproject_lists_numpy_and_click_as_the_runtime_dependencies():
    runtime = [re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in toml_strings("project", "dependencies")]
    assert sorted(runtime) == ["click", "numpy"]
    assert "scipy>=1.10" in toml_strings("project.optional-dependencies", "test")


def test_the_blocker_blocks():
    done = python("-c", NO_SCIPY.replace('runpy.run_module("soundscapekit.cli", run_name="__main__")', "import scipy.signal"))
    assert done.returncode == 1
    assert "scipy is blocked: scipy" in done.stderr


def test_every_import_and_private_name_is_used():
    """Each name that a module of the package imports, or defines at module level as _private, is read in that
    module or imported from it by another: an import or a helper that a change leaves behind fails here."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted((SRC / "soundscapekit").glob("*.py"))}
    imported_from = {(node.module, alias.name) for tree in trees.values() for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    unused = []
    for module, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        names = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
        names += [name for node in tree.body for name in _defined(node) if name[:1] == "_" and name[:2] != "__"]
        unused += [f"{module}: {name}" for name in names if name not in read and (module, name) not in imported_from]
    assert unused == []


def _defined(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [target.id for target in targets if isinstance(target, ast.Name)]
