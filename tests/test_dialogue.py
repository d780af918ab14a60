"""Tokenization, context joining, and connection-word derivation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from editseg.dialogue import (
    ConnectionWordList,
    DialogueExample,
    Token,
    TokenKind,
    Tokenization,
    derive_connection_words,
    join_context,
    prepare_incomplete,
    sep_token,
    texts,
    tokenize,
    word_tokens,
)


def ex(context, incomplete, rewrite=None):
    return DialogueExample.create(
        [word_tokens(u.split()) for u in context],
        word_tokens(incomplete.split()),
        word_tokens(rewrite.split()) if rewrite else None,
    )


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_whitespace():
    assert texts(tokenize("why is always this")) == ["why", "is", "always", "this"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_per_character():
    assert texts(tokenize("北京今天", Tokenization.PER_CHARACTER)) == ["北", "京", "今", "天"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=4), max_size=6))
def test_tokenize_idempotent_under_single_space_joins(words):
    once = texts(tokenize(" ".join(words)))
    again = texts(tokenize(" ".join(once)))
    assert once == again


# ---------------------------------------------------------------------------
# join_context


def test_join_two_utterances_one_separator():
    e = ex(["how is weather", "cloudy today"], "why")
    joined = join_context(e)
    assert texts(joined.tokens) == ["how", "is", "weather", "[S]", "cloudy", "today"]


def test_join_with_connection_words():
    e = ex(["a"], "b")
    conn = ConnectionWordList(("of",))
    joined = join_context(e, conn, k=1)
    assert texts(joined.tokens) == ["a", "[S]", "of"]
    assert joined.tokens[2].kind is TokenKind.WORD


def test_join_empty_context():
    e = ex([], "b")
    assert len(join_context(e)) == 0


def test_join_length_formula():
    e = ex(["a b c", "d", "e f"], "x")
    conn = ConnectionWordList(("of", "the"))
    for k in (0, 1, 2):
        joined = join_context(e, conn, k)
        expected = 6 + 2 + (1 if k > 0 else 0) + k
        assert len(joined) == expected


def test_join_k_exceeding_list_fails():
    with pytest.raises(ValueError):
        join_context(ex(["a"], "b"), ConnectionWordList(("of",)), k=2)


# ---------------------------------------------------------------------------
# prepare_incomplete


def test_prepare_appends_end():
    assert texts(prepare_incomplete(word_tokens(["why", "is"]))) == ["why", "is", "[E]"]


def test_prepare_empty():
    assert texts(prepare_incomplete([])) == ["[E]"]


def test_prepare_rejects_specials():
    with pytest.raises(ValueError):
        prepare_incomplete([sep_token()])


@pytest.mark.parametrize("text", ["a [E]", "[S] a"])
def test_prepare_rejects_special_texts_in_word_tokens(text):
    with pytest.raises(ValueError, match="must not contain"):
        prepare_incomplete(tokenize(text))


# ---------------------------------------------------------------------------
# derive_connection_words


def test_no_out_of_dialogue_words_gives_empty_list():
    train = [ex(["a b"], "c d", "a c d")]
    conn = derive_connection_words(train, 10)
    assert conn.words == ()


def test_single_out_of_dialogue_word():
    train = [ex(["a"], "b", "a of b")]
    conn = derive_connection_words(train, 10)
    assert conn.words == ("of",)


def test_frequency_ranking_with_max_size():
    train = [
        ex(["a"], "b", "a of b"),
        ex(["c"], "d", "c of the d"),
    ]
    conn = derive_connection_words(train, 1)
    assert conn.words == ("of",)
    full = derive_connection_words(train, 5)
    assert full.words == ("of", "the")


def test_connection_list_save_load_round_trip(tmp_path):
    conn = ConnectionWordList(("of", "the", "их"))
    path = tmp_path / "conn.txt"
    path.write_text("".join(w + "\n" for w in conn.words), encoding="utf-8")
    loaded = ConnectionWordList.load(path)
    assert loaded.words == conn.words


# ---------------------------------------------------------------------------
# invariants


def test_special_token_texts_enforced():
    with pytest.raises(ValueError):
        Token("oops", TokenKind.SEP_S)
    with pytest.raises(ValueError):
        Token("", TokenKind.WORD)


@pytest.mark.parametrize("where", ["context", "incomplete", "rewrite"])
@pytest.mark.parametrize("special", ["[S]", "[E]"])
def test_raw_utterances_refuse_special_texts(where, special):
    # ``tokenize`` makes every token a word, so a check of the token kind
    # let a literal "[S]" through, to take the separator's vocabulary id.
    parts = {"context": "a b", "incomplete": "c", "rewrite": "c"}
    parts[where] += " " + special
    with pytest.raises(ValueError, match="must not contain"):
        DialogueExample.create([tokenize(parts["context"])], tokenize(parts["incomplete"]), tokenize(parts["rewrite"]))


def test_example_requires_nonempty_incomplete():
    with pytest.raises(ValueError):
        DialogueExample.create([], [])
