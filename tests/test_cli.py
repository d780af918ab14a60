"""End-to-end CLI surface: every subcommand plus its error contract."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from editseg.cli import main


def run_cli(args):
    return main(list(args))


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth + train once; downstream commands reuse the checkpoint."""
    tmp = tmp_path_factory.mktemp("cli")
    assert run_cli(["synth", "--out", str(tmp / "train.jsonl"), "--num-examples", "40", "--seed", "1"]) == 0
    assert run_cli(["synth", "--out", str(tmp / "dev.jsonl"), "--num-examples", "10", "--seed", "2"]) == 0
    code = run_cli(
        [
            "train",
            "--train-path", str(tmp / "train.jsonl"),
            "--dev-path", str(tmp / "dev.jsonl"),
            "--checkpoint-path", str(tmp / "model.run"),
            "--epochs", "1",
            "--embed-dim", "12",
            "--hidden-dim", "8",
            "--base-channels", "4",
            "--batch-size", "8",
            "--seed", "3",
        ]
    )
    assert code == 0
    return tmp


def test_synth_writes_dataset(workspace):
    rows = read_jsonl(workspace / "train.jsonl")
    assert len(rows) == 40
    assert {"context", "current", "rewrite"} <= set(rows[0])


def test_derive_labels_schema(workspace, capsys):
    out = workspace / "labels.jsonl"
    assert run_cli(["derive-labels", "--data", str(workspace / "train.jsonl"), "--out", str(out)]) == 0
    rows = read_jsonl(out)
    assert len(rows) == 40
    row = rows[0]
    assert set(row) == {"rows", "cols", "cells", "coverage"}
    assert len(row["cells"]) == row["rows"] * row["cols"]
    assert set(row["cells"]) <= {0, 1, 2}
    assert row["coverage"] in ("full", "partial")
    summary = json.loads(capsys.readouterr().out)
    assert summary["full"] == 40


def test_rewrite_and_eval_pipeline(workspace, capsys):
    pred_path = workspace / "preds.jsonl"
    assert run_cli(
        ["rewrite", "--checkpoint", str(workspace / "model.run"),
         "--data", str(workspace / "dev.jsonl"), "--out", str(pred_path)]
    ) == 0
    capsys.readouterr()
    rows = read_jsonl(pred_path)
    assert len(rows) == 10
    assert {"rewrite_pred", "program"} <= set(rows[0])

    report_path = workspace / "report.json"
    assert run_cli(
        ["eval", "--pred", str(pred_path), "--gold", str(workspace / "dev.jsonl"),
         "--out", str(report_path)]
    ) == 0
    stdout_report = json.loads(capsys.readouterr().out)
    file_report = json.loads(report_path.read_text(encoding="utf-8"))
    assert stdout_report == file_report
    assert set(stdout_report) == {"bleu", "rouge_n", "rouge_l", "em", "rewriting", "counts"}
    assert stdout_report["counts"] == 10
    for v in stdout_report["bleu"].values():
        assert 0.0 <= v <= 1.0


def test_eval_perfect_predictions_score_one(workspace, capsys):
    gold = read_jsonl(workspace / "dev.jsonl")
    perfect = workspace / "perfect.jsonl"
    perfect.write_text(
        "\n".join(json.dumps({"rewrite_pred": r["rewrite"]}) for r in gold) + "\n",
        encoding="utf-8",
    )
    assert run_cli(["eval", "--pred", str(perfect), "--gold", str(workspace / "dev.jsonl")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["em"] == 1.0
    assert report["rouge_l"] == pytest.approx(1.0)


def test_bench_schema(workspace, capsys):
    assert run_cli(
        ["bench", "--checkpoint", str(workspace / "model.run"),
         "--data", str(workspace / "dev.jsonl")]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert {"mean_ms", "median_ms", "p95_ms", "invocations"} <= set(report)
    assert report["invocations"] == 1


def test_config_file_with_flag_overrides(workspace, tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"num_examples": 7, "seed": 9}), encoding="utf-8")
    out = tmp_path / "data.jsonl"
    assert run_cli(["synth", "--config", str(cfg), "--out", str(out), "--num-examples", "5"]) == 0
    assert len(read_jsonl(out)) == 5  # flag wins over config file


def test_errors_are_machine_readable_and_nonzero(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"context": []}\n', encoding="utf-8")
    code = run_cli(["derive-labels", "--data", str(bad), "--out", str(tmp_path / "x.jsonl")])
    assert code != 0
    err = capsys.readouterr().err
    obj = json.loads(err.strip().splitlines()[-1])
    assert "error" in obj
    assert obj.get("line") == 1


def test_missing_file_is_clean_error(tmp_path, capsys):
    code = run_cli(["rewrite", "--checkpoint", str(tmp_path / "none.run"),
                    "--data", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "o.jsonl")])
    assert code != 0
    assert "error" in json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def _copy_checkpoint(workspace, tmp_path):
    dst = tmp_path / "model.run"
    for suffix in ("", ".json"):
        Path(str(dst) + suffix).write_bytes(Path(str(workspace / "model.run") + suffix).read_bytes())
    return dst


def _rewrite_error(workspace, tmp_path, checkpoint, capsys):
    out = tmp_path / "o.jsonl"
    code = run_cli(["rewrite", "--checkpoint", str(checkpoint),
                    "--data", str(workspace / "dev.jsonl"), "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert not out.exists()
    return json.loads(err[-1])["error"]


@pytest.mark.parametrize("cut", ["header", "payload"])
def test_truncated_checkpoint_is_json_error(workspace, tmp_path, capsys, cut):
    ckpt = _copy_checkpoint(workspace, tmp_path)
    raw = ckpt.read_bytes()
    # Cut inside the JSON header, or drop only the last float of the payload.
    ckpt.write_bytes(raw[:20] if cut == "header" else raw[:-8])
    assert "bytes" in _rewrite_error(workspace, tmp_path, ckpt, capsys)


def test_sidecar_that_disagrees_with_arrays_is_json_error(workspace, tmp_path, capsys):
    ckpt = _copy_checkpoint(workspace, tmp_path)
    sidecar_path = Path(str(ckpt) + ".json")
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    sidecar["model_config"]["hidden_dim"] //= 2
    sidecar_path.write_text(json.dumps(sidecar), encoding="utf-8")
    assert "shape" in _rewrite_error(workspace, tmp_path, ckpt, capsys)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "editseg.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "derive-labels" in proc.stdout
