"""Command-line interface: derive-labels, synth, train, rewrite, eval, bench.

Every subcommand accepts ``--config <path>``, a JSON object of defaults whose
keys are the subcommand's flag names with underscores (``num_examples``; for
``train``, the ``RunConfig`` fields); flags given on the command line win.
An unknown key or a value of the wrong type fails like any bad input. Outputs are
UTF-8 JSON or JSONL; errors go to stderr as one JSON object per failure and
the process exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checkpoint import CheckpointError, load_model, replacing
from .data import (
    DatasetError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    read_jsonl_objects,
    save_dataset,
    write_jsonl,
)
from .dialogue import (
    ConnectionWordList,
    EMPTY_CONNECTION_WORDS,
    Tokenization,
    detokenize,
    join_context,
    texts,
    tokenize,
)
from .metrics import evaluate_corpus
from .supervision import Coverage, build_gold_matrix
from .training import RunConfig, TrainingDiverged, bench_latency, train


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _fail(message: str, code: int = 2):
    raise CliError(message, code)


class _Parser(argparse.ArgumentParser):
    """Turns argparse's usage errors into ``CliError`` and takes flags only in
    full (``--conf`` would pass ``--config`` by); subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        _fail(f"{self.prog}: {message}")


def _load_config_defaults(argv: list[str]) -> dict:
    """Read the --config JSON ahead of parsing so flags can override it; as
    for every other flag, the last one given wins."""
    config = _Parser(prog="editseg", add_help=False)
    config.add_argument("--config")
    path = config.parse_known_args(argv)[0].config
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        _fail(f"cannot read config {path}: {exc}")
    if not isinstance(obj, dict):
        _fail(f"config {path} must hold a JSON object")
    return obj


def _apply_config(parser: argparse.ArgumentParser, argv: list[str], config: dict):
    """Make each config key the default of the chosen subcommand's flag.

    ``train`` checks its keys itself, against ``RunConfig``. For the other
    subcommands a key must name one of their flags, and its value must have
    the flag's type and be one of its choices.
    """
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    name = argv[0] if argv else None
    if not config or name not in subcommands or name == "train":
        return
    sub = subcommands[name]
    flags = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    for key, value in config.items():
        action = flags.get(key)
        if action is None:
            _fail(f"unknown config key for {name}: {key}")
        kind = action.type or str
        if isinstance(value, bool) or not isinstance(value, kind) or (
            action.choices is not None and value not in action.choices
        ):
            _fail(f"config key {key} for {name} has a bad value: {value!r}")
        action.required = False
    sub.set_defaults(**config)


def _emit(obj, out_path=None):
    """Print ``obj`` as JSON, and write it to ``out_path`` in place of any file there."""
    text = json.dumps(obj, ensure_ascii=False, indent=2)
    print(text)
    if out_path:
        with replacing(out_path) as fh:
            fh.write((text + "\n").encode("utf-8"))


def _connection_list(args) -> tuple[ConnectionWordList, int]:
    if args.conn_k is not None and args.conn_k < 0:
        _fail(f"--conn-k must be at least 0, got {args.conn_k}")
    if args.conn_k is not None and not args.conn_file:
        _fail("--conn-k needs --conn-file")
    if args.conn_file:
        try:
            conn = ConnectionWordList.load(args.conn_file)
        except ValueError as exc:  # a repeated word, or bytes that are not UTF-8
            _fail(f"connection-word file {args.conn_file}: {exc}")
        k = args.conn_k if args.conn_k is not None else len(conn.words)
        return conn, min(k, len(conn.words))
    return EMPTY_CONNECTION_WORDS, 0


def _load_predictions(path, mode: Tokenization) -> list[list[str]]:
    """The tokens of each non-blank line's ``rewrite_pred`` string, in order."""
    preds = []
    for lineno, obj in read_jsonl_objects(path):
        if not isinstance(obj.get("rewrite_pred"), str):
            raise DatasetError('predictions: "rewrite_pred" must be a string', lineno)
        preds.append(texts(tokenize(obj["rewrite_pred"], mode)))
    return preds


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    try:
        spec = SyntheticSpec(
            vocab_size=args.vocab_size,
            num_examples=args.num_examples,
            context_turns=(args.min_turns, args.max_turns),
            utterance_len=(args.min_len, args.max_len),
            substitutes=(0, args.max_substitutes),
            inserts=(0, args.max_inserts),
            seed=args.seed,
        )
    except ValueError as exc:
        _fail(str(exc))
    examples = generate_synthetic(spec)
    save_dataset(examples, args.out, args.mode)
    _emit({"written": len(examples), "path": args.out})


def cmd_derive_labels(args):
    conn, k = _connection_list(args)
    examples = load_dataset(args.data, args.mode, require_rewrite=True)
    rows = []
    full = 0
    for ex in examples:
        matrix, coverage = build_gold_matrix(ex, conn, k)
        full += coverage is Coverage.FULL
        rows.append(
            {
                "rows": matrix.shape[0],
                "cols": matrix.shape[1],
                "cells": matrix.reshape(-1).tolist(),
                "coverage": "full" if coverage is Coverage.FULL else "partial",
            }
        )
    write_jsonl(args.out, rows)
    _emit({"examples": len(rows), "full": full, "partial": len(rows) - full, "path": args.out})


def cmd_train(args):
    field_names = set(RunConfig.__dataclass_fields__)
    overrides = {
        k: v for k, v in vars(args).items() if k in field_names and v is not None
    }
    merged = dict(args.config_defaults)
    merged.update(overrides)
    try:
        config = RunConfig.from_dict(merged)
    except (TypeError, ValueError) as exc:
        _fail(str(exc))
    if not config.train_path or not config.dev_path:
        _fail("train_path and dev_path are required")
    result = train(config, log=lambda msg: print(msg, file=sys.stderr), resume=args.resume)
    if config.connection_k > 0:
        # Persist the run's list next to the checkpoint, one word per line.
        with replacing(str(config.checkpoint_path) + ".connwords.txt") as fh:
            fh.write("".join(w + "\n" for w in result.conn.words).encode("utf-8"))
    _emit(
        {
            "best_checkpoint": result.best_checkpoint,
            "last_checkpoint": result.last_checkpoint,
            "best_dev_em": result.best_dev_em,
            "epochs_run": len(result.history),
            "partial_label_fraction": result.partial_fraction,
        }
    )


def cmd_rewrite(args):
    rw = load_model(args.checkpoint)
    rows = [
        {
            "rewrite_pred": detokenize(out, rw.tokenization),
            "program": {
                "substitutes": [list(s) for s in program.substitutes],
                "inserts": [list(i) for i in program.inserts],
            },
        }
        for out, program in rw.rewrite(load_dataset(args.data, rw.tokenization))
    ]
    write_jsonl(args.out, rows)
    _emit({"examples": len(rows), "path": args.out})


def cmd_eval(args):
    mode = Tokenization(args.mode)
    conn, k = _connection_list(args)
    gold = load_dataset(args.gold, mode, require_rewrite=True)
    preds = _load_predictions(args.pred, mode)
    if len(preds) != len(gold):
        _fail(f"{len(preds)} predictions vs {len(gold)} gold examples")
    if not gold:
        _fail(f"{args.gold}: no examples to score")
    contexts = []
    incompletes = []
    refs = []
    for ex in gold:
        joined = join_context(ex, conn, k)
        contexts.append([t.text for t in joined.tokens if not t.is_special()])
        incompletes.append(texts(ex.incomplete))
        refs.append(texts(ex.gold_rewrite))
    report = evaluate_corpus(preds, refs, contexts, incompletes)
    _emit(report.to_dict(), args.out)


def cmd_bench(args):
    rw = load_model(args.checkpoint)
    examples = load_dataset(args.data, rw.tokenization)
    if not examples:
        _fail(f"{args.data}: no examples to time")
    report = bench_latency(rw, examples)
    if report["invocations"] != 1:
        _fail(f"one-pass violation: {report['invocations']} invocations per example", code=3)
    _emit(report, args.out)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="editseg",
        description="Rewrite incomplete dialogue utterances via word-level edit matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file with defaults for this subcommand")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_common(p)
    p.add_argument("--seed", type=int, default=0, help="random seed of the generator")
    p.add_argument("--out", required=True)
    p.add_argument("--num-examples", type=int, default=1000, dest="num_examples")
    p.add_argument("--vocab-size", type=int, default=50, dest="vocab_size")
    p.add_argument("--min-turns", type=int, default=1)
    p.add_argument("--max-turns", type=int, default=2)
    p.add_argument("--min-len", type=int, default=4)
    p.add_argument("--max-len", type=int, default=9)
    p.add_argument("--max-substitutes", type=int, default=2)
    p.add_argument("--max-inserts", type=int, default=1)
    p.add_argument("--mode", default="whitespace", choices=[m.value for m in Tokenization])
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("derive-labels", help="derive edit-matrix labels from rewrites")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", default="whitespace", choices=[m.value for m in Tokenization])
    p.add_argument("--conn-file", help="connection-word list (one word per line)")
    p.add_argument("--conn-k", type=int, default=None)
    p.set_defaults(func=cmd_derive_labels)

    p = sub.add_parser("train", help="train the edit-matrix model")
    add_common(p)
    p.add_argument("--train-path", dest="train_path")
    p.add_argument("--dev-path", dest="dev_path")
    p.add_argument("--checkpoint-path", dest="checkpoint_path")
    p.add_argument("--seed", type=int, default=None, help="seed of the initial weights and the shuffles")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--embed-dim", type=int, default=None, dest="embed_dim")
    p.add_argument("--hidden-dim", type=int, default=None, dest="hidden_dim")
    p.add_argument("--base-channels", type=int, default=None, dest="base_channels")
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--connection-k", type=int, default=None, dest="connection_k")
    p.add_argument("--tokenization", default=None, choices=[m.value for m in Tokenization])
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rewrite", help="rewrite a dataset with a trained model")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("eval", help="score predictions against gold rewrites")
    add_common(p)
    p.add_argument("--pred", required=True, help="JSONL with rewrite_pred fields")
    p.add_argument("--gold", required=True, help="gold dataset JSONL")
    p.add_argument("--out", default=None)
    p.add_argument("--mode", default="whitespace", choices=[m.value for m in Tokenization])
    p.add_argument("--conn-file")
    p.add_argument("--conn-k", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="single-sentence latency benchmark")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        config_defaults = _load_config_defaults(argv)
        _apply_config(parser, argv, config_defaults)
        args = parser.parse_args(argv)
        args.config_defaults = config_defaults
        args.func(args)
        return 0
    except (CliError, DatasetError, TrainingDiverged, OSError, CheckpointError) as exc:
        report, code = {"error": str(exc)}, exc.code if isinstance(exc, CliError) else 2
        if isinstance(exc, DatasetError):
            report["line"] = exc.line
        if isinstance(exc, TrainingDiverged):
            report |= {"epoch": exc.epoch, "batch_ids": exc.batch_ids, "recent_losses": exc.loss_history[-5:]}
            code = 3
        print(json.dumps(report, ensure_ascii=False), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
