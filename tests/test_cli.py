"""End-to-end CLI surface: every subcommand plus its error contract."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from _float64 import to_float64
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import editseg
from editseg.checkpoint import CheckpointError, load_checkpoint
from editseg.cli import main
from editseg.data import load_dataset
from editseg.dialogue import texts
from editseg.model import RewriteModel
from editseg.training import load_model


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


def test_bench_on_empty_dataset_is_one_json_error_line(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code = run_cli(["bench", "--checkpoint", str(workspace / "model.run"), "--data", str(empty)])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and "no examples" in json.loads(err[0])["error"]
    assert not captured.out


def test_config_file_with_flag_overrides(workspace, tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"num_examples": 7, "seed": 9}), encoding="utf-8")
    out = tmp_path / "data.jsonl"
    assert run_cli(["synth", "--config", str(cfg), "--out", str(out), "--num-examples", "5"]) == 0
    assert len(read_jsonl(out)) == 5  # flag wins over config file
    assert run_cli(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(read_jsonl(out)) == 7  # config file wins over the flag's default


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


def _edit_header(raw: bytes, edit) -> bytes:
    (n,) = struct.unpack_from("<I", raw)
    header = json.loads(raw[4 : 4 + n])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    return struct.pack("<I", len(blob)) + blob + raw[4 + n :]


def _first_array(header):
    return header["arrays"][min(header["arrays"])]


MALFORMED = {
    "arrays_not_object": ("run", lambda h: h.update(arrays=[1])),
    "array_entry_not_object": ("run", lambda h: h["arrays"].update({min(h["arrays"]): 1})),
    "shape_not_list": ("run", lambda h: _first_array(h).update(shape="ab")),
    "arrays_missing": ("run", lambda h: h.pop("arrays")),
    "meta_missing": ("run", lambda h: h.pop("meta")),
    "offset_not_integer": ("run", lambda h: _first_array(h).update(offset="0")),
    "dtype_integer": ("run", lambda h: _first_array(h).update(dtype="<i8")),
    "dtype_half": ("run", lambda h: _first_array(h).update(dtype="<f2")),
    "tokenization_missing": ("sidecar", lambda s: s.pop("tokenization")),
    "connection_words_not_list": ("sidecar", lambda s: s.update(connection_words=5)),
    "connection_k_not_integer": ("sidecar", lambda s: s.update(connection_k="x")),
}


def _malform(ckpt: Path, case: str):
    target, edit = MALFORMED[case]
    if target == "run":
        ckpt.write_bytes(_edit_header(ckpt.read_bytes(), edit))
    else:
        sidecar_path = Path(str(ckpt) + ".json")
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        edit(sidecar)
        sidecar_path.write_text(json.dumps(sidecar), encoding="utf-8")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_header_or_sidecar_raises_checkpoint_error(workspace, tmp_path, case):
    ckpt = _copy_checkpoint(workspace, tmp_path)
    load_model(ckpt)  # the untouched copy loads
    _malform(ckpt, case)
    with pytest.raises(CheckpointError):
        load_model(ckpt)


def test_malformed_header_is_one_json_error_line(workspace, tmp_path, capsys):
    ckpt = _copy_checkpoint(workspace, tmp_path)
    _malform(ckpt, "arrays_not_object")
    out = tmp_path / "o.jsonl"
    code = run_cli(["rewrite", "--checkpoint", str(ckpt),
                    "--data", str(workspace / "dev.jsonl"), "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and "arrays" in json.loads(err[0])["error"]


def test_unknown_dtype_is_one_json_error_line(workspace, tmp_path, capsys):
    ckpt = _copy_checkpoint(workspace, tmp_path)
    _malform(ckpt, "dtype_integer")
    out = tmp_path / "o.jsonl"
    code = run_cli(["rewrite", "--checkpoint", str(ckpt),
                    "--data", str(workspace / "dev.jsonl"), "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and "<i8" in json.loads(err[0])["error"]


def _write_legacy_checkpoint(path, arrays, meta):
    """A run-v1 file as written before arrays carried a dtype: float64 payloads only."""
    names = sorted(arrays)
    entries, offset = {}, 0
    for name in names:
        entries[name] = {"shape": list(arrays[name].shape), "offset": offset}
        offset += 8 * arrays[name].size
    header = {"format": "run-v1", "arrays": entries, "meta": meta}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = b"".join(np.asarray(arrays[name], dtype="<f8").tobytes() for name in names)
    Path(path).write_bytes(struct.pack("<I", len(blob)) + blob + payload)


def test_legacy_float64_checkpoint_serves_in_float32(workspace, tmp_path):
    rw = load_model(workspace / "model.run")
    wide = to_float64(rw.model)
    legacy = tmp_path / "legacy.run"
    _write_legacy_checkpoint(legacy, wide.state(), load_checkpoint(workspace / "model.run")[1])
    Path(str(legacy) + ".json").write_bytes(Path(str(workspace / "model.run") + ".json").read_bytes())
    assert b'"dtype"' not in legacy.read_bytes()
    assert {a.dtype for a in load_checkpoint(legacy)[0].values()} == {np.dtype(np.float64)}

    served = load_model(legacy)
    assert {a.dtype for a in served.model.state().values()} == {np.dtype(np.float32)}
    for ex in load_dataset(workspace / "dev.jsonl", rw.tokenization):
        assert texts(rw._replace(model=wide).rewrite(ex)[0]) == texts(served.rewrite(ex)[0])


# Header dtypes a corrupted file may carry: valid, unknown, or not a string.
DTYPE_TAGS = st.one_of(
    st.sampled_from(["<f4", "<f8", ">f8", "f4", "<i8", "<f2", ""]), st.integers(), st.none()
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_checkpoint_loads_or_raises_checkpoint_error(workspace, tmp_path, data):
    suffix = data.draw(st.sampled_from(["", ".json"]), label="file")
    raw = Path(str(workspace / "model.run") + suffix).read_bytes()
    corruption = data.draw(st.sampled_from(["truncate", "byte", "dtype"]), label="corruption")
    if corruption == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    elif corruption == "byte" or suffix:
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        raw = raw[:pos] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[pos + 1 :]
    else:

        def set_dtype(header):
            name = data.draw(st.sampled_from(sorted(header["arrays"])), label="array")
            header["arrays"][name]["dtype"] = data.draw(DTYPE_TAGS, label="dtype")

        raw = _edit_header(raw, set_dtype)
    ckpt = _copy_checkpoint(workspace, tmp_path)
    Path(str(ckpt) + suffix).write_bytes(raw)
    try:
        load_model(ckpt)
    except CheckpointError:
        pass


def _train_argv(workspace, checkpoint, *extra):
    """The workspace's training run, with its checkpoint at ``checkpoint``."""
    return ["train", "--train-path", str(workspace / "train.jsonl"), "--dev-path", str(workspace / "dev.jsonl"),
            "--checkpoint-path", str(checkpoint), "--embed-dim", "12", "--hidden-dim", "8",
            "--base-channels", "4", "--batch-size", "8", "--seed", "3", *extra]


# ".last" checkpoints that ``train --resume`` cannot continue from, as
# (the workspace file copied to ".last", edit of its metadata). Each ended in
# a raw traceback: ValueError, KeyError, or AttributeError for a file without
# Adam state.
BAD_RESUME = {
    "epoch_not_integer": ("model.run.last", lambda meta: meta.update(epoch="x")),
    "epoch_missing": ("model.run.last", lambda meta: meta.pop("epoch")),
    "epoch_negative": ("model.run.last", lambda meta: meta.update(epoch=-1)),
    "best_dev_em_not_number": ("model.run.last", lambda meta: meta.update(best_dev_em="high")),
    "no_adam_state": ("model.run", lambda meta: None),
}


@pytest.mark.parametrize("case", sorted(BAD_RESUME))
def test_resume_with_bad_metadata_is_one_json_error_line(workspace, tmp_path, capsys, case):
    source, edit = BAD_RESUME[case]
    ckpt = tmp_path / "model.run"
    last = Path(str(ckpt) + ".last")
    for suffix in ("", ".json"):
        Path(str(last) + suffix).write_bytes(Path(str(workspace / source) + suffix).read_bytes())
    last.write_bytes(_edit_header(last.read_bytes(), lambda header: edit(header["meta"])))
    code = run_cli(_train_argv(workspace, ckpt, "--epochs", "2", "--resume"))
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and str(last) in json.loads(err[0])["error"]
    assert not captured.out and not ckpt.exists()


def test_diverged_training_is_one_json_line_with_diagnostics(workspace, tmp_path, monkeypatch, capsys):
    forward_loss = RewriteModel.forward_loss
    calls = []

    def diverging_forward_loss(model, batch):
        calls.append(batch)
        return forward_loss(model, batch) if len(calls) < 3 else editseg.Tensor(np.float32(np.nan))

    monkeypatch.setattr(RewriteModel, "forward_loss", diverging_forward_loss)
    code = run_cli(_train_argv(workspace, tmp_path / "model.run", "--epochs", "1"))
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 3
    assert len(err) == 1 and not captured.out
    obj = json.loads(err[0])
    assert obj["epoch"] == 0
    assert len(obj["batch_ids"]) == len(calls[-1]) == 8
    assert len(obj["recent_losses"]) == 2 and all(np.isfinite(obj["recent_losses"]))


def test_train_writes_the_connection_words_it_used(tmp_path):
    for name, seed in (("train", "1"), ("dev", "2")):
        assert run_cli(["synth", "--out", str(tmp_path / f"{name}.jsonl"),
                        "--num-examples", "12", "--seed", seed]) == 0
    # Drop a context word from every rewrite's dialogue so the derived
    # connection-word list is not empty.
    rows = read_jsonl(tmp_path / "train.jsonl")
    for row in rows:
        row["rewrite"] += " and of"
    (tmp_path / "train.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
    )
    ckpt = tmp_path / "model.run"
    code = run_cli(
        ["train", "--train-path", str(tmp_path / "train.jsonl"),
         "--dev-path", str(tmp_path / "dev.jsonl"), "--checkpoint-path", str(ckpt),
         "--epochs", "1", "--embed-dim", "4", "--hidden-dim", "3", "--base-channels", "2",
         "--connection-k", "2"]
    )
    assert code == 0
    sidecar = json.loads(Path(str(ckpt) + ".json").read_text(encoding="utf-8"))
    written = Path(str(ckpt) + ".connwords.txt").read_text(encoding="utf-8").splitlines()
    assert written == sidecar["connection_words"] == ["and", "of"]


# argparse's own errors, which printed usage text instead of JSON.
USAGE_ERRORS = {
    "invalid_int": ["synth", "--config", "{config}", "--out", "o.jsonl", "--num-examples", "x"],
    "missing_subcommand": ["--config", "{config}"],
    "unknown_flag": ["synth", "--out", "o.jsonl", "--bogus"],
    # Only synth and train take a seed; the other subcommands draw nothing.
    "seed_on_rewrite": ["rewrite", "--seed", "1", "--checkpoint", "m.run", "--data", "d.jsonl", "--out", "o.jsonl"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_are_one_json_error_line(tmp_path, capsys, case):
    config = tmp_path / "c.json"
    config.write_text('{"seed": 1}', encoding="utf-8")
    argv = [arg.format(config=config) for arg in USAGE_ERRORS[case]]
    code = run_cli(argv)
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and json.loads(err[0])["error"].startswith("editseg")
    assert not captured.out


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["synth", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out


GOOD_LINE = '{"context": ["a b c"], "current": "b c", "rewrite": "a b c"}\n'

# Each case ended in a raw traceback before datasets and configs were checked.
BAD_INPUT = {
    "current_not_string": ("data", b'{"context": ["a b c"], "current": 5, "rewrite": "a b c"}\n'),
    "rewrite_not_string": ("data", b'{"context": ["a b c"], "current": "b c", "rewrite": ["a"]}\n'),
    "dataset_not_utf8": ("data", b'{"context": ["a \xff"], "current": "b", "rewrite": "a b"}\n'),
    "config_not_utf8": ("config", b'{"epochs": "\xff"}'),
    "epochs_not_integer": ("config", b'{"epochs": "ten"}'),
    "class_weights_not_list": ("config", b'{"class_weights": 5}'),
    "seed_not_integer": ("config", b'{"seed": "x"}'),
    "tokenization_unknown": ("config", b'{"tokenization": "morse"}'),
    "config_unknown_key": ("config", b'{"epoch": 3}'),
    "config_deleted_key": ("config", b'{"test_path": "test.jsonl"}'),
    "synth_config_unknown_key": ("synth_config", b'{"num_exampels": 7}'),
    "synth_config_not_integer": ("synth_config", b'{"num_examples": 7.5}'),
    "synth_config_unknown_mode": ("synth_config", b'{"mode": "morse"}'),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_malformed_dataset_or_config_is_one_json_error_line(tmp_path, capsys, case):
    kind, raw = BAD_INPUT[case]
    good = tmp_path / "good.jsonl"
    good.write_text(GOOD_LINE, encoding="utf-8")
    bad = tmp_path / ("bad.jsonl" if kind == "data" else "config.json")
    bad.write_bytes(raw)
    if kind == "data":
        argv = ["derive-labels", "--data", str(bad), "--out", str(tmp_path / "o.jsonl")]
    elif kind == "synth_config":
        argv = ["synth", "--config", str(bad), "--out", str(tmp_path / "o.jsonl")]
    else:
        argv = ["train", "--config", str(bad), "--train-path", str(good), "--dev-path", str(good),
                "--checkpoint-path", str(tmp_path / "model.run")]
    code = run_cli(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    obj = json.loads(err[0])
    assert obj["error"]
    if kind == "data":
        assert obj["line"] == 1
    assert not (tmp_path / "o.jsonl").exists() and not (tmp_path / "model.run").exists()


def test_console_entry_point_runs():
    # The child imports the same package as the tests, installed or not.
    src = str(Path(editseg.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "editseg.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "derive-labels" in proc.stdout
