"""Dialogue data model: tokens, examples, context joining, connection words.

The joined context ``c`` is the row axis of every edit matrix: the history
utterances separated by ``[S]`` tokens, optionally followed by one ``[S]``
and a small frequency-ranked list of connection words so the generator can
copy common function words that never appeared in the dialogue. The
incomplete utterance ``x`` gets a trailing ``[E]`` so insertions can land
after its last word.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

SEP_TEXT = "[S]"
END_TEXT = "[E]"


class TokenKind(Enum):
    WORD = "word"
    SEP_S = "sep"
    END_E = "end"


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    kind: TokenKind = TokenKind.WORD

    def __post_init__(self):
        if self.kind is TokenKind.SEP_S and self.text != SEP_TEXT:
            raise ValueError(f"separator token must be {SEP_TEXT!r}")
        if self.kind is TokenKind.END_E and self.text != END_TEXT:
            raise ValueError(f"end token must be {END_TEXT!r}")
        if self.kind is TokenKind.WORD and not self.text:
            raise ValueError("word tokens must be nonempty")

    def is_special(self) -> bool:
        return self.kind in (TokenKind.SEP_S, TokenKind.END_E)


def sep_token() -> Token:
    return Token(SEP_TEXT, TokenKind.SEP_S)


def end_token() -> Token:
    return Token(END_TEXT, TokenKind.END_E)


def word_tokens(texts: Iterable[str]) -> list[Token]:
    return [Token(t) for t in texts]


def texts(tokens: Iterable[Token]) -> list[str]:
    return [t.text for t in tokens]


class Tokenization(str, Enum):
    """Dataset-level tokenization mode: words for English-style corpora,
    one token per character for Chinese-style ones."""

    WHITESPACE = "whitespace"
    PER_CHARACTER = "char"


def tokenize(text: str, mode: Tokenization | str = Tokenization.WHITESPACE) -> list[Token]:
    """Split raw text into word tokens; empty text gives an empty list."""
    mode = Tokenization(mode)
    if mode is Tokenization.WHITESPACE:
        parts = text.split()
    else:
        parts = [ch for ch in text if not ch.isspace()]
    return word_tokens(parts)


def detokenize(tokens: Iterable[Token], mode: Tokenization | str = Tokenization.WHITESPACE) -> str:
    mode = Tokenization(mode)
    joiner = " " if mode is Tokenization.WHITESPACE else ""
    return joiner.join(t.text for t in tokens)


@dataclass(frozen=True)
class DialogueExample:
    """One dialogue turn to rewrite: history, incomplete utterance, and
    (when training) the gold self-contained rewrite."""

    context_utterances: tuple[tuple[Token, ...], ...]
    incomplete: tuple[Token, ...]
    gold_rewrite: Optional[tuple[Token, ...]] = None

    def __post_init__(self):
        if not self.incomplete:
            raise ValueError("incomplete utterance must be nonempty")
        for utt in list(self.context_utterances) + [self.incomplete] + (
            [self.gold_rewrite] if self.gold_rewrite else []
        ):
            if any(t.text in (SEP_TEXT, END_TEXT) for t in utt):
                raise ValueError(f"raw utterances must not contain {SEP_TEXT} or {END_TEXT}")

    @staticmethod
    def create(context, incomplete, gold_rewrite=None) -> "DialogueExample":
        return DialogueExample(
            context_utterances=tuple(tuple(u) for u in context),
            incomplete=tuple(incomplete),
            gold_rewrite=tuple(gold_rewrite) if gold_rewrite is not None else None,
        )


@dataclass(frozen=True)
class ConnectionWordList:
    """Out-of-dialogue words, most frequent first, appended to the context tail."""

    words: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        if len(set(self.words)) != len(self.words):
            raise ValueError("connection words must be unique")

    @staticmethod
    def load(path) -> "ConnectionWordList":
        with open(path, encoding="utf-8") as fh:
            return ConnectionWordList(line.rstrip("\n") for line in fh if line.strip())


EMPTY_CONNECTION_WORDS = ConnectionWordList()


@dataclass(frozen=True)
class JoinedContext:
    """The context row sequence ``c``."""

    tokens: tuple[Token, ...]

    def __len__(self):
        return len(self.tokens)


def join_context(
    example: DialogueExample,
    conn: ConnectionWordList = EMPTY_CONNECTION_WORDS,
    k: int = 0,
) -> JoinedContext:
    """Concatenate history utterances with ``[S]`` separators and append the
    first ``k`` connection words behind one more separator."""
    if k > len(conn.words):
        raise ValueError(f"k={k} exceeds connection list of {len(conn.words)}")
    tokens: list[Token] = []
    for i, utt in enumerate(example.context_utterances):
        if i > 0:
            tokens.append(sep_token())
        tokens.extend(utt)
    if k > 0:
        if example.context_utterances:
            tokens.append(sep_token())
        tokens.extend(Token(w) for w in conn.words[:k])
    return JoinedContext(tuple(tokens))


def prepare_incomplete(x: Iterable[Token]) -> list[Token]:
    """Append the ``[E]`` sentinel so an insertion can target the position
    after the last word. A token with the text of ``[S]`` or ``[E]`` is
    refused, whatever its kind, as ``DialogueExample`` refuses it."""
    out = list(x)
    if any(t.text in (SEP_TEXT, END_TEXT) for t in out):
        raise ValueError(f"incomplete utterance must not contain {SEP_TEXT} or {END_TEXT}")
    out.append(end_token())
    return out


def derive_connection_words(train: Iterable[DialogueExample], max_size: int) -> ConnectionWordList:
    """Collect rewrite tokens that appear nowhere in their own dialogue and
    rank them by corpus frequency."""
    counts: Counter[str] = Counter()
    for ex in train:
        if ex.gold_rewrite is None:
            raise ValueError("connection-word derivation needs gold rewrites")
        in_dialogue = {t.text for utt in ex.context_utterances for t in utt}
        in_dialogue.update(t.text for t in ex.incomplete)
        for tok in ex.gold_rewrite:
            if tok.text not in in_dialogue:
                counts[tok.text] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
    return ConnectionWordList(w for w, _ in ranked)
