"""Dataset IO contracts and synthetic-corpus round trips."""

import hashlib
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from editseg.data import (
    DatasetError,
    SyntheticSpec,
    benchmark_spec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    write_jsonl,
)
from editseg.dialogue import Tokenization, join_context, prepare_incomplete, texts
from editseg.generation import rewrite_from_matrix
from editseg.supervision import Coverage, build_gold_matrix


# ---------------------------------------------------------------------------
# load / save


def test_load_single_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"context": ["a b"], "current": "c d", "rewrite": "a c d"}\n', encoding="utf-8")
    examples = load_dataset(p)
    assert len(examples) == 1
    assert texts(examples[0].incomplete) == ["c", "d"]
    assert texts(examples[0].gold_rewrite) == ["a", "c", "d"]


def test_load_missing_current_names_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"context": [], "current": "a"}\n{"context": []}\n', encoding="utf-8")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(p)


def test_load_crlf_equals_lf(tmp_path):
    body = '{"context": ["a"], "current": "b"}'
    lf = tmp_path / "lf.jsonl"
    crlf = tmp_path / "crlf.jsonl"
    lf.write_bytes((body + "\n").encode())
    crlf.write_bytes((body + "\r\n").encode())
    assert load_dataset(lf) == load_dataset(crlf)


def test_load_invalid_json_names_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"context": [], "current": "a"}\n{oops\n', encoding="utf-8")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(p)


def test_missing_rewrite_allowed_only_at_inference(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"context": [], "current": "a"}\n', encoding="utf-8")
    assert load_dataset(p)[0].gold_rewrite is None
    with pytest.raises(DatasetError, match="rewrite"):
        load_dataset(p, require_rewrite=True)


def test_save_load_round_trip_char_mode(tmp_path):
    spec = SyntheticSpec(num_examples=5, seed=3)
    examples = generate_synthetic(spec)
    p = tmp_path / "d.jsonl"
    save_dataset(examples, p)
    assert load_dataset(p) == examples
    # Chinese-style storage round-trips through per-character mode.
    q = tmp_path / "zh.jsonl"
    q.write_text('{"context": ["北京今天"], "current": "为什么", "rewrite": "北京为什么"}\n', encoding="utf-8")
    zh = load_dataset(q, Tokenization.PER_CHARACTER)
    assert texts(zh[0].incomplete) == ["为", "什", "么"]


def test_a_row_that_fails_to_serialize_leaves_the_previous_file(tmp_path):
    # write_jsonl wrote in place: a row json.dumps refused, after the first
    # rows were written, left a truncated file where the previous one stood.
    p = tmp_path / "out.jsonl"
    write_jsonl(p, [{"kept": "before"}])
    before = p.read_bytes()
    with pytest.raises(TypeError):
        write_jsonl(p, [{"a": 1}, {"b": 2}, {"c": object()}])
    assert p.read_bytes() == before
    assert sorted(q.name for q in tmp_path.iterdir()) == ["out.jsonl"]


# ---------------------------------------------------------------------------
# synthetic generation


def test_zero_edit_examples_keep_x():
    spec = SyntheticSpec(num_examples=40, substitutes=(0, 0), inserts=(0, 0), seed=1)
    for ex in generate_synthetic(spec):
        assert ex.gold_rewrite == ex.incomplete


def test_single_substitute_changes_exactly_one_window():
    spec = SyntheticSpec(num_examples=30, substitutes=(1, 1), inserts=(0, 0), seed=2)
    for ex in generate_synthetic(spec):
        x = texts(ex.incomplete)
        xs = texts(ex.gold_rewrite)
        marked = [i for i, w in enumerate(x) if w.startswith("s")]
        assert len(marked) == 1
        # Everything before/after the marker is preserved in order.
        i = marked[0]
        assert xs[:i] == x[:i]
        assert xs[len(xs) - (len(x) - i - 1) :] == x[i + 1 :]
        assert all(w.startswith("e") for w in xs[i : len(xs) - (len(x) - i - 1)])


def test_generation_deterministic_per_seed():
    a = generate_synthetic(SyntheticSpec(num_examples=25, seed=9))
    b = generate_synthetic(SyntheticSpec(num_examples=25, seed=9))
    c = generate_synthetic(SyntheticSpec(num_examples=25, seed=10))
    assert a == b
    assert a != c


def test_round_trip_full_coverage_on_generated_corpus():
    examples = generate_synthetic(SyntheticSpec(num_examples=100, seed=4))
    examples += generate_synthetic(benchmark_spec(num_examples=100, seed=21))
    for ex in examples:
        matrix, coverage = build_gold_matrix(ex)
        assert coverage is Coverage.FULL
        c = join_context(ex)
        x_prepared = prepare_incomplete(list(ex.incomplete))
        got, _ = rewrite_from_matrix(matrix, x_prepared, c)
        assert texts(got) == texts(ex.gold_rewrite)


def test_synthetic_token_texts_are_plain_str():
    # numpy's choice returns numpy.str_ items; tokens hold them as str.
    examples = generate_synthetic(SyntheticSpec(num_examples=200, seed=3))
    tokens = [t for ex in examples for u in (*ex.context_utterances, ex.incomplete, ex.gold_rewrite) for t in u]
    assert all(type(t.text) is str for t in tokens)


def test_benchmark_spec_has_fixed_dims_and_varied_outputs():
    examples = generate_synthetic(benchmark_spec(num_examples=60, seed=5))
    ns = {len(ex.incomplete) for ex in examples}
    assert ns == {8}
    ms = {len(join_context(ex)) for ex in examples}
    assert ms == {17}, "context phrases must replace filler, not lengthen turns"
    lengths = {len(ex.gold_rewrite) for ex in examples}
    assert len(lengths) > 3, "edit variety must vary the output length"


def _corpus_digest(spec) -> str:
    # JSON spells a token's text the same whatever ``str`` type holds it.
    h = hashlib.sha256()
    for ex in generate_synthetic(spec):
        turns = [texts(u) for u in ex.context_utterances]
        h.update(json.dumps((turns, texts(ex.incomplete), texts(ex.gold_rewrite))).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "spec,digest",
    [
        # The default spec, which is also the benchmark's paper-dims corpus.
        (SyntheticSpec(num_examples=200, seed=17), "958fa2e8b590e356"),
        # The benchmark's long-dialogue corpus.
        (
            SyntheticSpec(
                num_examples=200, seed=17, vocab_size=100, context_turns=(2, 3),
                utterance_len=(8, 14), substitutes=(0, 3), inserts=(0, 2),
            ),
            "1cd1ed49e10824b2",
        ),
    ],
    ids=["default", "long"],
)
def test_corpora_without_filler_replacement_are_unchanged(spec, digest):
    # Digests of the corpora generated before ``phrases_replace_filler``
    # existed: with the field off, the generator draws exactly as before.
    assert not spec.phrases_replace_filler
    assert _corpus_digest(spec) == digest


@st.composite
def synthetic_specs(draw):
    """Spec fields whose ranges pass the range checks; ``SyntheticSpec``
    alone decides whether its word pools are large enough."""

    def span(least, most):
        lo = draw(st.integers(least, most))
        return lo, draw(st.integers(lo, most))

    return dict(
        vocab_size=draw(st.integers(30, 120)),
        num_examples=draw(st.integers(0, 4)),
        context_turns=span(1, 3),
        utterance_len=span(1, 40),
        substitutes=span(0, 12),
        inserts=span(0, 12),
        distractor_prob=draw(st.sampled_from([0.0, 0.4, 1.0])),
        seed=draw(st.integers(0, 2**16)),
        phrases_replace_filler=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(synthetic_specs())
def test_every_accepted_spec_generates(fields):
    # A spec that passes its own checks must not fail later in a numpy draw
    # or on an empty word pool.
    try:
        spec = SyntheticSpec(**fields)
    except ValueError:
        assume(False)
    examples = generate_synthetic(spec)
    assert len(examples) == spec.num_examples
    assert all(len(ex.incomplete) <= spec.utterance_len[1] for ex in examples)
