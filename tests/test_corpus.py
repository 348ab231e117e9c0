import numpy as np
import pytest

from fastweight import corpus as cp
from fastweight.numerics import ConfigError, InputError


def test_two_documents_shared_vocab():
    c = cp.corpus_from_text("ab\n\nba", "char")
    assert len(c.documents) == 2
    assert set(c.tokenizer.vocab) == {"a", "b", cp.UNK}
    np.testing.assert_array_equal(c.documents[0], c.documents[1][::-1])


def test_ingest_deterministic(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("hello world\n\nsecond doc here\n")
    a = cp.ingest(p, "word")
    b = cp.ingest(p, "word")
    assert a.tokenizer.vocab == b.tokenizer.vocab
    for da, db in zip(a.documents, b.documents):
        np.testing.assert_array_equal(da, db)


def test_char_round_trip():
    text = "the quick brown fox"
    c = cp.corpus_from_text(text, "char")
    assert c.tokenizer.decode(c.tokenizer.encode(text)) == text


def test_word_oov_maps_to_unk():
    c = cp.corpus_from_text("aa bb cc", "word")
    ids = c.tokenizer.encode("aa zz")
    assert ids[1] == c.tokenizer.index[cp.UNK]


@pytest.mark.parametrize("mode, text, oov", [("word", "a zz b", "zz"), ("char", "abz", "z")])
def test_oov_without_unk_is_input_error(mode, text, oov):
    tok = cp.TokenizerSpec(mode, ["a", "b"])
    with pytest.raises(InputError, match=f"{mode} '{oov}' not in vocabulary"):
        tok.encode(text)


def test_empty_corpus_raises():
    with pytest.raises(ConfigError):
        cp.corpus_from_text("\n\n\n", "char")


def test_unreadable_file_raises_oserror():
    with pytest.raises(OSError):
        cp.ingest("/nonexistent/path.txt", "char")


def test_entity_corpus_is_seeded_and_repeat_heavy():
    a = cp.make_entity_corpus(20, seed=3)
    b = cp.make_entity_corpus(20, seed=3)
    assert a == b
    c = cp.corpus_from_text(a, "word")
    # within a doc, names repeat: count word repeats
    repeats = total = 0
    for doc in c.documents:
        seen = set()
        for i, t in enumerate(doc[1:], start=1):
            if int(t) in set(int(x) for x in doc[:i]):
                repeats += 1
            total += 1
    assert repeats / total > 0.4


def test_token_frequencies_count_everything():
    c = cp.corpus_from_text("a b a\n\nb b", "word")
    freqs = cp.token_frequencies(c)
    assert freqs.sum() == c.n_tokens
    assert freqs[c.tokenizer.index["b"]] == 3
