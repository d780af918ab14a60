"""Dataset IO (UTF-8 JSON lines) and the synthetic training corpus.

The synthetic generator produces dialogues whose edits are both learnable
and exactly recoverable by distant supervision:

* the vocabulary is split into substitution markers, insertion markers,
  entity words, and normal words;
* each context turn may contain "marked entity phrases" (a marker followed
  by a short run of entity words);
* the incomplete utterance repeats a phrase's marker where an edit belongs:
  a substitution marker is itself replaced by the phrase's entity span,
  while the span of an insertion marker is inserted right after it.

Because markers/entities/normal words never collide, the tokens inside one
example are distinct and the LCS alignment between the incomplete and the
rewritten utterance is unique, so label derivation reproduces the sampled
edit program and gold-path generation reproduces the rewrite exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .checkpoint import replacing
from .dialogue import (
    DialogueExample,
    Token,
    Tokenization,
    detokenize,
    tokenize,
)


class DatasetError(ValueError):
    """Malformed or unusable dataset; carries the 1-based line number of a bad line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def read_jsonl_objects(path) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, object) for each non-blank line of a JSONL
    file; a line that is not UTF-8, not JSON or not an object is a DatasetError."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise DatasetError(f"not valid UTF-8 ({exc.reason} at byte {exc.start})", lineno) from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"invalid JSON ({exc.msg})", lineno) from exc
            if not isinstance(obj, dict):
                raise DatasetError("expected a JSON object", lineno)
            yield lineno, obj


def load_dataset(
    path,
    mode: Tokenization | str = Tokenization.WHITESPACE,
    require_rewrite: bool = False,
) -> list[DialogueExample]:
    """Parse a JSONL dataset; each object needs "context" (list of strings)
    and "current" (string), plus "rewrite" except at inference."""
    mode = Tokenization(mode)
    examples = []
    for lineno, obj in read_jsonl_objects(path):
        if not isinstance(obj.get("current"), str):
            raise DatasetError('"current" must be a string', lineno)
        context = obj.get("context", [])
        if not isinstance(context, list) or not all(isinstance(u, str) for u in context):
            raise DatasetError('"context" must be a list of strings', lineno)
        rewrite = obj.get("rewrite")
        if require_rewrite and rewrite is None:
            raise DatasetError('missing "rewrite" field', lineno)
        if rewrite is not None and not isinstance(rewrite, str):
            raise DatasetError('"rewrite" must be a string', lineno)
        try:
            examples.append(
                DialogueExample.create(
                    [tokenize(u, mode) for u in context],
                    tokenize(obj["current"], mode),
                    tokenize(rewrite, mode) if rewrite is not None else None,
                )
            )
        except ValueError as exc:
            raise DatasetError(str(exc), lineno) from exc
    return examples


def write_jsonl(path, rows: Iterable[dict]):
    """Write each object as one line of UTF-8 JSON, keys in insertion order.

    The file is replaced whole (``checkpoint.replacing``): a row that fails
    to serialize, or a write cut off, leaves a previous file as it was.
    """
    with replacing(path) as fh:
        for row in rows:
            fh.write((json.dumps(row, ensure_ascii=False) + "\n").encode("utf-8"))


def save_dataset(examples: Iterable[DialogueExample], path, mode: Tokenization | str = Tokenization.WHITESPACE):
    mode = Tokenization(mode)
    rows = []
    for ex in examples:
        obj = {
            "context": [detokenize(u, mode) for u in ex.context_utterances],
            "current": detokenize(ex.incomplete, mode),
        }
        if ex.gold_rewrite is not None:
            obj["rewrite"] = detokenize(ex.gold_rewrite, mode)
        rows.append(obj)
    write_jsonl(path, rows)


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class SyntheticSpec:
    """Knobs for the generated corpus; defaults are the desk-scale standard."""

    vocab_size: int = 50
    num_examples: int = 1000
    context_turns: tuple[int, int] = (1, 2)
    utterance_len: tuple[int, int] = (4, 9)
    substitutes: tuple[int, int] = (0, 2)
    inserts: tuple[int, int] = (0, 1)
    distractor_prob: float = 0.4
    seed: int = 0
    # A context phrase takes the place of as many filler words instead of
    # lengthening its turn, so the joined context length M depends only on
    # the turn count and length (``benchmark_spec``'s fixed-size grids).
    phrases_replace_filler: bool = False

    def __post_init__(self):
        if self.vocab_size < 30:
            raise ValueError("synthetic vocab needs at least 30 words")
        for name in ("num_examples", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")
        for name, least in (("context_turns", 1), ("utterance_len", 1), ("substitutes", 0), ("inserts", 0)):
            lo, hi = getattr(self, name)
            if not least <= lo <= hi:
                raise ValueError(f"{name} must be a range min..max with {least} <= min <= max, got {lo}..{hi}")
        # The largest draws ``_generate_one`` makes without replacement: the
        # utterance's distinct normal words, a marker per edit of each kind
        # and up to 3 entities per edit, with edits capped at (n + 1) // 2 sites.
        pools = {name: len(words) for name, words in self.pools().items()}
        n = self.utterance_len[1]
        sites = (n + 1) // 2
        for need, pool in (
            (n, "normals"),
            (min(self.substitutes[1], sites), "sub_markers"),
            (min(self.inserts[1], sites), "ins_markers"),
            (3 * min(self.substitutes[1] + self.inserts[1], sites), "entities"),
        ):
            if need > pools[pool]:
                raise ValueError(
                    f"utterance_len, substitutes and inserts can draw {need} words from the {pool} pool, "
                    f"but vocab_size {self.vocab_size} puts {pools[pool]} there"
                )

    def pools(self) -> dict[str, list[str]]:
        n_sub = max(2, self.vocab_size // 10)
        n_ins = max(2, self.vocab_size // 10)
        n_ent = max(4, 3 * self.vocab_size // 10)
        n_norm = self.vocab_size - n_sub - n_ins - n_ent
        return {
            "sub_markers": [f"s{i}" for i in range(n_sub)],
            "ins_markers": [f"r{i}" for i in range(n_ins)],
            "entities": [f"e{i}" for i in range(n_ent)],
            "normals": [f"w{i}" for i in range(n_norm)],
        }


@dataclass
class _Phrase:
    marker: str
    span: list[str]


def _spaced_positions(rng: np.random.Generator, n_positions: int, k: int) -> list[int]:
    """k positions in [0, n_positions) with pairwise distance >= 2."""
    if k == 0:
        return []
    # Choose k of the first n-k+... slots, then spread by the gap size.
    compressed = rng.choice(n_positions - (k - 1), size=k, replace=False)
    compressed.sort()
    return [int(p) + i for i, p in enumerate(compressed)]


def generate_synthetic(spec: SyntheticSpec) -> list[DialogueExample]:
    """Sample ``num_examples`` dialogues; deterministic per seed.

    Every example is fully representable: each edit references a context
    phrase that label derivation can locate contiguously, edit sites never
    touch, and at most one insertion targets any column.
    """
    rng = np.random.default_rng(spec.seed)
    pools = spec.pools()
    out = []
    for _ in range(spec.num_examples):
        out.append(_generate_one(rng, spec, pools))
    return out


def _generate_one(rng, spec, pools) -> DialogueExample:
    lo, hi = spec.utterance_len
    n = int(rng.integers(lo, hi + 1))
    max_sites = (n + 1) // 2
    n_sub = min(int(rng.integers(spec.substitutes[0], spec.substitutes[1] + 1)), max_sites)
    n_ins = min(int(rng.integers(spec.inserts[0], spec.inserts[1] + 1)), max_sites - n_sub)

    sites = _spaced_positions(rng, n, n_sub + n_ins)
    roles = ["sub"] * n_sub + ["ins"] * n_ins
    rng.shuffle(roles)

    sub_markers = rng.choice(pools["sub_markers"], size=len(pools["sub_markers"]), replace=False).tolist()
    ins_markers = rng.choice(pools["ins_markers"], size=len(pools["ins_markers"]), replace=False).tolist()
    entities = rng.choice(pools["entities"], size=len(pools["entities"]), replace=False).tolist()

    def take_span(max_len: int) -> list[str]:
        span_len = int(rng.integers(1, max_len + 1))
        return [entities.pop() for _ in range(span_len)]

    phrases: list[_Phrase] = []
    edits = []  # (position, role, phrase)
    for pos, role in zip(sites, roles):
        marker = (sub_markers if role == "sub" else ins_markers).pop()
        phrase = _Phrase(marker, take_span(3))
        phrases.append(phrase)
        edits.append((pos, role, phrase))
    if rng.random() < spec.distractor_prob and len(entities) >= 2:
        marker_pool = sub_markers if rng.random() < 0.5 else ins_markers
        if marker_pool:
            phrases.append(_Phrase(marker_pool.pop(), take_span(2)))

    # Context turns: normal filler plus the phrases. Slots are chosen against
    # the base word list up front so one phrase can never split another.
    n_turns = int(rng.integers(spec.context_turns[0], spec.context_turns[1] + 1))
    base_words = [
        rng.choice(pools["normals"], size=int(rng.integers(lo, hi + 1))).tolist()
        for _ in range(n_turns)
    ]
    if spec.phrases_replace_filler:
        for _ in range(sum(1 + len(phrase.span) for phrase in phrases)):
            most = max(base_words, key=len)  # first turn with the most filler left
            if not most:
                break
            most.pop()
    placements: list[list[tuple[int, _Phrase]]] = [[] for _ in range(n_turns)]
    for phrase in phrases:
        turn = int(rng.integers(n_turns))
        slot = int(rng.integers(len(base_words[turn]) + 1))
        placements[turn].append((slot, phrase))
    context = []
    for words, placed in zip(base_words, placements):
        turn_tokens: list[str] = []
        for i in range(len(words) + 1):
            for slot, phrase in placed:
                if slot == i:
                    turn_tokens.extend([phrase.marker] + phrase.span)
            if i < len(words):
                turn_tokens.append(words[i])
        context.append([Token(w) for w in turn_tokens])

    # Incomplete utterance: distinct normal words, markers at the edit sites.
    x_words = rng.choice(pools["normals"], size=n, replace=False).tolist()
    for pos, role, phrase in edits:
        x_words[pos] = phrase.marker

    # Rewrite: substitution sites replaced by their span; insertion spans
    # follow their marker (i.e. land before column pos + 1).
    rewrite: list[str] = []
    by_pos = {pos: (role, phrase) for pos, role, phrase in edits}
    for i, w in enumerate(x_words):
        role_phrase = by_pos.get(i)
        if role_phrase and role_phrase[0] == "sub":
            rewrite.extend(role_phrase[1].span)
        else:
            rewrite.append(w)
            if role_phrase and role_phrase[0] == "ins":
                rewrite.extend(role_phrase[1].span)

    return DialogueExample.create(
        context,
        [Token(w) for w in x_words],
        [Token(w) for w in rewrite],
    )


def benchmark_spec(num_examples: int = 200, seed: int = 0) -> SyntheticSpec:
    """Fixed-size grids with varied edit counts: output length varies while
    the per-example compute stays constant, which is what the one-pass
    latency property measures. Every example has M = 17 context rows and
    N + 1 = 9 utterance columns."""
    return SyntheticSpec(
        vocab_size=50,
        num_examples=num_examples,
        context_turns=(2, 2),
        utterance_len=(8, 8),
        substitutes=(0, 2),
        inserts=(0, 1),
        seed=seed,
        phrases_replace_filler=True,
    )
