import csv
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from soundscapekit.audio_io import AudioClip, write_wav_pcm16
from soundscapekit.cli import main
from soundscapekit.labels import CLASSES

from conftest import tone

FIXTURES = Path(__file__).parent / "data" / "cst_fixture"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestIndicesCommand:
    @pytest.mark.parametrize(
        "indices, message",
        [
            ({"stft_window": "big"}, "indices stft_window must be an integer, got 'big'"),
            ({"stft_window": 1024.0}, "indices stft_window must be an integer, got 1024.0"),
            ({"stft_window": 512, "stft_hop": 1024}, "indices stft_hop 1024 exceeds stft_window 512"),
            ({"adi_db_threshold": "-50"}, "indices adi_db_threshold must be a finite number, got '-50'"),
            ({"ndsi_bio_hz": [2000.0]}, "indices ndsi_bio_hz must be a list of 2 numbers, got [2000.0]"),
            ({"adi_band_width_hz": 3000}, "band width 3000 must split (0, 10000.0] into >= 2 bands"),
            ({"stft_windw": 2048}, "unknown key 'stft_windw' in indices"),
        ],
    )
    def test_invalid_indices_config_is_one_line_error(self, runner, tmp_path, indices, message):
        audio = tmp_path / "audio"
        audio.mkdir()
        write_wav_pcm16(audio / "a.wav", AudioClip(samples=tone(4000, 1.0, 32000), sample_rate_hz=32000))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"indices": indices}))
        out = tmp_path / "idx.csv"
        result = runner.invoke(main, ["indices", str(audio), "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: {cfg}: invalid configuration: {message}\n"
        assert not out.exists()

    def test_empty_directory(self, runner, tmp_path):
        out = tmp_path / "idx.csv"
        (tmp_path / "sub").mkdir()
        result = invoke(runner, ["indices", str(tmp_path / "sub"), "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[-1] == "recording_id,aci,adi,ndsi"

    def test_silent_file_row(self, runner, tmp_path):
        audio = tmp_path / "audio"
        audio.mkdir()
        write_wav_pcm16(audio / "quiet.wav", AudioClip(samples=np.zeros(32000), sample_rate_hz=32000))
        out = tmp_path / "idx.csv"
        result = invoke(runner, ["indices", str(audio), "--out", str(out)])
        assert result.exit_code == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        rec = rows[1].split(",")
        assert rec[0] == "quiet"
        assert float(rec[1]) == 0.0  # ACI of constant (zero) spectrogram
        assert float(rec[2]) == 0.0  # ADI with no band occupancy
        assert rec[3] == ""  # NDSI undefined

    def test_rerun_byte_identical(self, runner, tmp_path):
        audio = tmp_path / "audio"
        audio.mkdir()
        x = 0.5 * tone(3000, 1.0, 32000) + 0.1 * tone(1500, 1.0, 32000)
        write_wav_pcm16(audio / "mix.wav", AudioClip(samples=x, sample_rate_hz=32000))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert invoke(runner, ["indices", str(audio), "--out", str(out1)]).exit_code == 0
        assert invoke(runner, ["indices", str(audio), "--out", str(out2), "--jobs", "2"]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_failed_file_logged_and_nonzero_exit(self, runner, tmp_path):
        audio = tmp_path / "audio"
        audio.mkdir()
        (audio / "broken.wav").write_bytes(b"not really a wav")
        write_wav_pcm16(audio / "fine.wav", AudioClip(samples=tone(2500, 0.5, 32000), sample_rate_hz=32000))
        out = tmp_path / "idx.csv"
        result = runner.invoke(main, ["indices", str(audio), "--out", str(out)])
        assert result.exit_code == 1
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) == 2  # header + the one good file
        assert rows[1].startswith("fine,")

    def test_timing_column_optional(self, runner, tmp_path):
        audio = tmp_path / "audio"
        audio.mkdir()
        write_wav_pcm16(audio / "t.wav", AudioClip(samples=tone(2000, 0.5, 32000), sample_rate_hz=32000))
        out = tmp_path / "idx.csv"
        assert invoke(runner, ["indices", str(audio), "--out", str(out), "--timing"]).exit_code == 0
        header = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][0]
        assert header.endswith(",wall_s")


def write_pool(tmp_path):
    """A pool manifest with one 2 s tone per class; returns its path."""
    pool_dir = tmp_path / "pool"
    pool_dir.mkdir()
    rows = []
    for cls in CLASSES:
        p = pool_dir / f"{cls}.wav"
        write_wav_pcm16(p, AudioClip(samples=tone(400, 2.0, 32000, amp=0.4), sample_rate_hz=32000))
        rows.append((p.name, cls))
    manifest = pool_dir / "pool.csv"
    with open(manifest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["file", "class"])
        w.writerows(rows)
    return manifest


class TestMixCommand:
    def test_end_to_end(self, runner, tmp_path):
        manifest = write_pool(tmp_path)
        out_dir = tmp_path / "corpus"
        result = invoke(
            runner,
            ["mix", str(manifest), str(out_dir), "--count", "A=1", "--count", "S=1", "--seed", "5"],
        )
        assert result.exit_code == 0
        produced = sorted(p.name for p in out_dir.iterdir())
        assert "manifest.csv" in produced
        assert len([n for n in produced if n.endswith(".wav")]) == 2

    def test_partial_count_pmfs_keep_the_other_defaults(self, runner, tmp_path):
        """A config that sets only the one-class pmf still mixes two classes with the default pmf."""
        manifest = write_pool(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mixer": {"count_pmfs": {"1": {"1": 1.0}}}}))
        out_dir = tmp_path / "corpus"
        result = invoke(runner, ["mix", str(manifest), str(out_dir), "--count", "AB=1", "--config", str(cfg)])
        assert result.exit_code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["000000_AB.wav", "manifest.csv"]

    def test_bad_count_spec(self, runner, tmp_path):
        manifest = tmp_path / "pool.csv"
        manifest.write_text("file,class\n")
        result = runner.invoke(main, ["mix", str(manifest), str(tmp_path / "o"), "--count", "A"])
        assert result.exit_code != 0

    def test_non_integer_count_is_one_line_error(self, runner, tmp_path):
        manifest = tmp_path / "pool.csv"
        manifest.write_text("file,class\n")
        result = runner.invoke(main, ["mix", str(manifest), str(tmp_path / "o"), "--count", "B=x"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "'B=x'" in result.output
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", ["indices", "mix"])
def test_jobs_below_one_rejected(runner, tmp_path, command, jobs):
    manifest = tmp_path / "pool.csv"
    manifest.write_text("file,class\n")
    args = [str(tmp_path)] if command == "indices" else [str(manifest), str(tmp_path / "o")]
    result = runner.invoke(main, [command, *args, "--jobs", jobs])
    assert result.exit_code == 2
    assert "--jobs" in result.output


@pytest.mark.parametrize("command, seed", [("mix", "-1"), ("evaluate", "-5")])
def test_negative_seed_option_rejected(runner, tmp_path, command, seed):
    out = tmp_path / "out"
    if command == "mix":
        args = [str(write_pool(tmp_path)), str(out), "--count", "A=1"]
    else:
        args = [str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv"), "--out", str(out)]
    result = runner.invoke(main, [command, *args, "--seed", seed])
    assert result.exit_code == 2
    assert f"Invalid value for '--seed': {seed} is not in the range x>=0." in result.output
    assert not out.exists()


def test_negative_config_seed_is_one_line_error(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    result = runner.invoke(main, ["evaluate", str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv"),
                                  "--config", str(cfg), "--out", str(tmp_path / "rep")])
    assert result.exit_code == 1
    assert result.output == f"Error: {cfg}: invalid configuration: seed must be >= 0, got -1\n"
    assert not (tmp_path / "rep").exists()


def write_weak_annotations(path, truth_by_id):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["recording_id", *CLASSES])
        for rec_id, active in truth_by_id.items():
            w.writerow([rec_id, *(1 if c in active else 0 for c in CLASSES)])


def write_single_window_scores(path, pred_by_id):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["recording_id", "window_start_s", *CLASSES])
        for rec_id, pred in pred_by_id.items():
            w.writerow([rec_id, 0.0, *(0.9 if c in pred else 0.1 for c in CLASSES)])


def build_table_confusions():
    """Per-class confusion patterns whose F1s are exactly .678 / .937 / .776."""
    spec = {
        "anthropophony": (339, 161, 161),
        "biophony": (937, 63, 63),
        "geophony": (388, 112, 112),
    }
    n = 1100
    truth = {f"r{i:04d}": set() for i in range(n)}
    pred = {f"r{i:04d}": set() for i in range(n)}
    for cls, (tp, fp, fn) in spec.items():
        ids = list(truth)
        for i in range(tp):
            truth[ids[i]].add(cls)
            pred[ids[i]].add(cls)
        for i in range(tp, tp + fp):
            pred[ids[i]].add(cls)
        for i in range(tp + fp, tp + fp + fn):
            truth[ids[i]].add(cls)
    return truth, pred


class TestEvaluateCommand:
    def test_reproduces_reference_macro(self, runner, tmp_path):
        truth, pred = build_table_confusions()
        scores = tmp_path / "scores.csv"
        anns = tmp_path / "annotations.csv"
        write_single_window_scores(scores, pred)
        write_weak_annotations(anns, truth)
        out = tmp_path / "report"
        result = invoke(runner, ["evaluate", str(scores), str(anns), "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert round(report["per_class"]["anthropophony"]["f1"], 3) == 0.678
        assert round(report["per_class"]["biophony"]["f1"], 3) == 0.937
        assert round(report["per_class"]["geophony"]["f1"], 3) == 0.776
        assert round(report["macro_f1"], 3) == 0.797
        assert (out / "curves.csv").exists()
        assert (out / "stratified.csv").exists()
        assert (out / "decisions.csv").exists()
        table = (out / "report.txt").read_text()
        assert "macro F1 0.797" in table
        assert "biophony" in table

    def test_all_zero_scores_all_silence(self, runner, tmp_path):
        scores = tmp_path / "scores.csv"
        anns = tmp_path / "annotations.csv"
        with open(scores, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["recording_id", "window_start_s", *CLASSES])
            for i in range(4):
                w.writerow([f"r{i}", 0.0, 0.0, 0.0, 0.0])
        write_weak_annotations(anns, {f"r{i}": {"biophony"} for i in range(4)})
        out = tmp_path / "rep"
        result = invoke(runner, ["evaluate", str(scores), str(anns), "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["predicted_silence_rate"] == 1.0
        for cls in CLASSES:
            assert report["per_class"][cls]["f1"] == 0.0

    def test_count_above_window_count_rejected(self, runner, tmp_path):
        scores = tmp_path / "scores.csv"
        anns = tmp_path / "annotations.csv"
        write_single_window_scores(scores, {"r0": {"biophony"}})
        write_weak_annotations(anns, {"r0": {"biophony"}})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thresholds": {"mode": "global", "global": 0.5,
                                                  "counts": {"biophony": 3}}}))
        out = tmp_path / "rep"
        result = runner.invoke(main, ["evaluate", str(scores), str(anns), "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1
        assert "exceeds" in result.output

    def test_invalid_bootstrap_config_rejected_before_inputs(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bootstrap": {"confidence": 1.7}}))
        result = runner.invoke(main, ["evaluate", str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv"),
                                      "--config", str(cfg), "--out", str(tmp_path / "rep")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "bootstrap confidence" in result.output
        assert not (tmp_path / "rep").exists()

    def test_config_error_names_the_file(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bootstrap": {"confidence": 1.7}}))
        result = runner.invoke(main, ["evaluate", str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv"),
                                      "--config", str(cfg), "--out", str(tmp_path / "rep")])
        assert result.exit_code == 1
        assert result.output == (
            f"Error: {cfg}: invalid configuration: bootstrap confidence must be in (0, 1), got 1.7\n"
        )

    def test_invalid_threshold_fragment_is_one_line_error(self, runner, tmp_path):
        frag = tmp_path / "thresholds.json"
        frag.write_text(json.dumps({"thresholds": {"mode": "bogus"}}))
        result = runner.invoke(main, ["evaluate", str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv"),
                                      "--thresholds", str(frag), "--out", str(tmp_path / "rep")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: {frag}: invalid threshold policy: unknown threshold mode 'bogus'\n"
        assert not (tmp_path / "rep").exists()

    def test_annotations_without_scores_rejected(self, runner, tmp_path):
        """The one check that an annotated recording has scores; tune makes it too."""
        scores = tmp_path / "scores.csv"
        anns = tmp_path / "annotations.csv"
        write_single_window_scores(scores, {"r0": set()})
        write_weak_annotations(anns, {"r0": set(), "ghost": {"biophony"}})
        for command, out in (("evaluate", tmp_path / "rep"), ("tune", tmp_path / "t.json")):
            result = runner.invoke(main, [command, str(scores), str(anns), "--out", str(out)])
            assert result.exit_code == 1
            assert "ghost" in result.output
            assert failed_lines(result, command) == [
                f"{command}: FAILED: annotations for recordings without scores: ['ghost']"
            ]
            assert not out.exists()


class TestTuneCommand:
    def test_recovers_planted_thresholds(self, runner, tmp_path):
        out = tmp_path / "thresholds.json"
        result = invoke(
            runner,
            ["tune", str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv"), "--out", str(out)],
        )
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        per_class = data["thresholds"]["per_class"]
        assert per_class["anthropophony"] == pytest.approx(0.722, abs=1e-9)
        assert per_class["biophony"] == pytest.approx(0.920, abs=1e-9)
        assert per_class["geophony"] == pytest.approx(0.571, abs=1e-9)

    def test_fragment_feeds_evaluate(self, runner, tmp_path):
        thresholds = tmp_path / "thresholds.json"
        invoke(runner, ["tune", str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv"),
                        "--out", str(thresholds)])
        out = tmp_path / "rep"
        result = invoke(
            runner,
            ["evaluate", str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv"),
             "--thresholds", str(thresholds), "--out", str(out)],
        )
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["macro_f1"] == 1.0

    def test_youden_objective_runs(self, runner, tmp_path):
        out = tmp_path / "y.json"
        result = invoke(
            runner,
            ["tune", str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv"),
             "--objective", "youden", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert "per_class" in json.loads(out.read_text())["thresholds"]

    def test_empty_scores_fails(self, runner, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        anns = tmp_path / "a.csv"
        write_weak_annotations(anns, {})
        result = runner.invoke(main, ["tune", str(empty), str(anns), "--out", str(tmp_path / "t.json")])
        assert result.exit_code == 1


def write_case_study_inputs(tmp_path, n=6):
    indices = tmp_path / "indices.csv"
    diversity = tmp_path / "diversity.csv"
    labels = tmp_path / "labels.csv"
    with open(indices, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["recording_id", "aci", "adi", "ndsi"])
        for i in range(n):
            w.writerow([f"r{i}", float(i + 1), float(2 * i + 1), 0.1 * i])
    with open(diversity, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["recording_id", "species_count"])
        for i in range(n):
            w.writerow([f"r{i}", 2 * (i + 1)])
    write_weak_annotations(labels, {f"r{i}": {"biophony"} for i in range(n)})
    return indices, diversity, labels


class TestCaseStudyCommand:
    def test_linear_fixture_r_one(self, runner, tmp_path):
        indices, diversity, labels = write_case_study_inputs(tmp_path)
        out = tmp_path / "corr.csv"
        result = invoke(runner, ["case-study", str(indices), str(diversity), str(labels),
                                 "--filters", "all,B", "--out", str(out)])
        assert result.exit_code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        aci_all = next(r for r in rows if r["index"] == "aci" and r["filter"] == "all")
        assert float(aci_all["r"]) == 1.0
        assert int(aci_all["n"]) == 6

    def test_degenerate_filter_flagged_others_computed(self, runner, tmp_path):
        indices, diversity, labels = write_case_study_inputs(tmp_path)
        # relabel one recording as geophony-only: BG filter keeps 7? no - make
        # exactly one recording pass the AB filter so that row errors out
        write_weak_annotations(
            labels,
            {"r0": {"anthropophony"}, **{f"r{i}": {"geophony"} for i in range(1, 6)}},
        )
        out = tmp_path / "corr.csv"
        result = runner.invoke(main, ["case-study", str(indices), str(diversity), str(labels),
                                      "--filters", "all,AB", "--out", str(out)])
        assert result.exit_code == 1
        rows = list(csv.DictReader(out.read_text().splitlines()))
        ab_rows = [r for r in rows if r["filter"] == "AB"]
        assert all(r["note"] for r in ab_rows)
        all_rows = [r for r in rows if r["filter"] == "all"]
        assert all(not r["note"] for r in all_rows)

    def test_truth_and_model_sources(self, runner, tmp_path):
        indices, diversity, labels = write_case_study_inputs(tmp_path)
        model = tmp_path / "model.csv"
        with open(model, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["recording_id", *CLASSES, "silence"])
            for i in range(6):
                w.writerow([f"r{i}", 0, 1, 0, 0])
        out = tmp_path / "corr.csv"
        result = invoke(runner, ["case-study", str(indices), str(diversity), str(labels),
                                 "--model-labels", str(model), "--filters", "B", "--out", str(out)])
        assert result.exit_code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        truth_r = next(r for r in rows if r["index"] == "aci" and r["source"] == "truth")
        model_r = next(r for r in rows if r["index"] == "aci" and r["source"] == "model")
        assert truth_r["r"] == model_r["r"]

    def test_join_failure_aborts(self, runner, tmp_path):
        indices, diversity, labels = write_case_study_inputs(tmp_path)
        diversity.write_text("recording_id,species_count\nr0,3\n")
        result = runner.invoke(main, ["case-study", str(indices), str(diversity), str(labels),
                                      "--out", str(tmp_path / "c.csv")])
        assert result.exit_code == 1
        assert "missing" in result.output


def failed_lines(result, command):
    """The `<command>: FAILED: ...` lines of a run, once it is checked to exit 1 without a traceback."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    return [ln for ln in result.output.splitlines() if ln.startswith(f"{command}: FAILED: ")]


@pytest.mark.parametrize("command", ["indices", "mix", "tune", "evaluate", "case-study"])
def test_unwritable_output_is_one_line_error(runner, tmp_path, command):
    """A file output in a missing directory, or a directory output under a regular file."""
    afile = tmp_path / "afile"
    afile.write_text("")
    missing_dir = tmp_path / "missing"
    fixture = [str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv")]
    if command == "indices":
        (tmp_path / "audio").mkdir()
        args = [str(tmp_path / "audio"), "--out", str(missing_dir / "x.csv")]
    elif command == "mix":
        manifest = tmp_path / "pool.csv"
        manifest.write_text("file,class\n")
        args = [str(manifest), str(afile / "sub")]
    elif command == "tune":
        args = [*fixture, "--out", str(missing_dir / "t.json")]
    elif command == "evaluate":
        args = [*fixture, "--out", str(afile / "sub")]
    else:
        args = [*map(str, write_case_study_inputs(tmp_path)), "--out", str(missing_dir / "c.csv")]
    result = runner.invoke(main, [command, *args])
    assert len(failed_lines(result, command)) == 1, result.output
    assert ".part" not in result.output


def test_failed_report_file_keeps_the_others_whole(runner, tmp_path):
    """A directory in the way of curves.csv: one FAILED line naming it, and no half-written file."""
    rep = tmp_path / "rep"
    (rep / "curves.csv").mkdir(parents=True)
    result = runner.invoke(main, ["evaluate", str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv"),
                                  "--out", str(rep)])
    assert failed_lines(result, "evaluate") == [
        f"evaluate: FAILED: [Errno 21] Is a directory: {str(rep / 'curves.csv')!r}"
    ]
    assert sorted(p.name for p in rep.iterdir()) == ["curves.csv", "report.json", "report.txt"]
    assert json.loads((rep / "report.json").read_text())["n_recordings"] > 0


def assert_table_error(result, path, line):
    """One `path:line: message` line, exit 1, and no exception escaping the command."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    errors = [ln for ln in result.output.splitlines() if ln.startswith(f"{path}:")]
    assert len(errors) == 1, result.output
    assert errors[0].startswith(f"{path}:{line}: "), errors[0]


class TestBadInputTables:
    """Every bad input table ends in one `path:line: message` line and exit 1."""

    @staticmethod
    def case_study(tmp_path, indices=None, diversity=None, labels=None, model=None):
        paths = dict(zip(("indices", "diversity", "labels"), write_case_study_inputs(tmp_path)))
        for name, text in (("indices", indices), ("diversity", diversity), ("labels", labels)):
            if text is not None:
                paths[name].write_text(text)
        args = ["case-study", str(paths["indices"]), str(paths["diversity"]), str(paths["labels"]),
                "--out", str(tmp_path / "corr.csv")]
        if model is not None:
            paths["model"] = tmp_path / "model.csv"
            paths["model"].write_text(model)
            args += ["--model-labels", str(paths["model"])]
        return args, paths

    def test_species_count_not_a_number(self, runner, tmp_path):
        args, paths = self.case_study(tmp_path, diversity="recording_id,species_count\nr0,2\nr1,x\n")
        assert_table_error(runner.invoke(main, args), paths["diversity"], 3)

    def test_aci_not_a_number(self, runner, tmp_path):
        args, paths = self.case_study(tmp_path, indices="recording_id,aci,adi,ndsi\nr0,abc,1.0,0.1\n")
        assert_table_error(runner.invoke(main, args), paths["indices"], 2)

    def test_indices_column_missing_after_comment_lines(self, runner, tmp_path):
        text = "# stft_window=1024\n# aci_chunk_s=None\n# ndsi_bio_hz=[2000.0, 8000.0]\nrecording_id,aci,ndsi\n"
        args, paths = self.case_study(tmp_path, indices=text + "r0,1.0,0.1\n")
        assert_table_error(runner.invoke(main, args), paths["indices"], 4)

    def test_label_flag_yes(self, runner, tmp_path):
        text = "recording_id,anthropophony,biophony,geophony\nr0,0,yes,0\n"
        args, paths = self.case_study(tmp_path, labels=text)
        assert_table_error(runner.invoke(main, args), paths["labels"], 2)

    def test_decisions_flag_x(self, runner, tmp_path):
        text = "recording_id,anthropophony,biophony,geophony,silence\n\nr0,0,1,0,0\nr1,0,x,0,0\n"
        args, paths = self.case_study(tmp_path, model=text)
        assert_table_error(runner.invoke(main, args), paths["model"], 4)

    def test_duplicate_recording_id(self, runner, tmp_path):
        args, paths = self.case_study(tmp_path, diversity="recording_id,species_count\nr0,2\nr0,3\n")
        assert_table_error(runner.invoke(main, args), paths["diversity"], 3)

    @pytest.mark.parametrize("text, line", [("file,class\na.wav,traffic\n", 2), ("path,label\na.wav,biophony\n", 1)],
                             ids=["unknown-class", "wrong-header"])
    def test_pool_manifest(self, runner, tmp_path, text, line):
        manifest = tmp_path / "pool.csv"
        manifest.write_text(text)
        out_dir = tmp_path / "corpus"
        result = runner.invoke(main, ["mix", str(manifest), str(out_dir), "--count", "A=1"])
        assert_table_error(result, manifest, line)
        assert not out_dir.exists()

    @pytest.mark.parametrize("start", ["nan", "-5", "inf", "x"])
    @pytest.mark.parametrize("command", ["evaluate", "tune"])
    def test_bad_window_start(self, runner, tmp_path, command, start):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "recording_id,window_start_s,anthropophony,biophony,geophony\n"
            f"r0,0.0,0.1,0.9,0.1\nr0,{start},0.1,0.9,0.1\n"
        )
        anns = tmp_path / "annotations.csv"
        write_weak_annotations(anns, {"r0": {"biophony"}})
        out = ["--out", str(tmp_path / ("rep" if command == "evaluate" else "t.json"))]
        result = runner.invoke(main, [command, str(scores), str(anns), *out])
        assert_table_error(result, scores, 3)

    @pytest.mark.parametrize("start", ["1e9", "60", "60.0"])
    @pytest.mark.parametrize("command", ["evaluate", "tune"])
    def test_window_start_past_the_recording(self, runner, tmp_path, command, start):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "recording_id,window_start_s,anthropophony,biophony,geophony\n"
            f"r0,0.0,0.1,0.9,0.1\nr1,0.0,0.1,0.9,0.1\nr1,{start},0.1,0.9,0.1\n"
        )
        anns = tmp_path / "annotations.csv"
        write_weak_annotations(anns, {"r0": {"biophony"}, "r1": set()})
        out = ["--out", str(tmp_path / ("rep" if command == "evaluate" else "t.json"))]
        result = runner.invoke(main, [command, str(scores), str(anns), *out])
        assert_table_error(result, scores, 4)
        assert f"{scores}:4: window_start_s {start} is not inside the 60.0 s recording" in result.output

    @pytest.mark.parametrize("command", ["evaluate", "tune"])
    def test_strong_segment_outside_the_recording(self, runner, tmp_path, command):
        scores = tmp_path / "scores.csv"
        scores.write_text("recording_id,window_start_s,anthropophony,biophony,geophony\nr0,0.0,0.1,0.9,0.1\n")
        anns = tmp_path / "seg.csv"
        anns.write_text("recording_id,class,start_s,end_s\nr0,biophony,0,10\nr0,biophony,50,70\n")
        out = ["--out", str(tmp_path / ("rep" if command == "evaluate" else "t.json"))]
        result = runner.invoke(main, [command, str(scores), str(anns), *out])
        assert_table_error(result, anns, 3)
        assert f"{anns}:3: segment (50.0, 70.0) outside [0, 60.0]" in result.output
