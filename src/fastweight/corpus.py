"""Corpus ingestion and synthetic data.

Text files are UTF-8 with blank lines separating documents. Tokenization is
either character-level or whitespace word-level; word vocabularies are built
from the training split only, with out-of-vocabulary words mapped to a
reserved unknown token.

The entity-corpus generator builds documents that introduce names drawn from
a shared pool and reuse them several times, so adaptation to repeated rare
tokens is measurable at desk scale.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import ConfigError, InputError

UNK = "<unk>"


@dataclass
class TokenizerSpec:
    mode: str                 # "char" or "word"
    vocab: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode not in ("char", "word"):
            raise ConfigError(f"tokenizer mode must be char or word, got {self.mode!r}")
        if not isinstance(self.vocab, list) or not all(isinstance(t, str) for t in self.vocab):
            raise ConfigError("tokenizer vocab must be a list of strings")
        self.index = {tok: i for i, tok in enumerate(self.vocab)}

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def encode(self, text: str) -> np.ndarray:
        """Characters or whitespace-split words to ids; a token outside the
        vocabulary becomes <unk>, or an InputError if there is none."""
        toks = text if self.mode == "char" else text.split()
        unk = self.index.get(UNK)
        ids = [self.index.get(tok, unk) for tok in toks]
        if unk is None and None in ids:
            raise InputError(f"{self.mode} {toks[ids.index(None)]!r} not in vocabulary")
        return np.array(ids, dtype=np.int64)

    def decode(self, ids) -> str:
        toks = [self.vocab[i] for i in ids]
        return "".join(toks) if self.mode == "char" else " ".join(toks)


@dataclass
class Corpus:
    documents: list[np.ndarray]
    tokenizer: TokenizerSpec

    @property
    def n_tokens(self) -> int:
        return sum(len(d) for d in self.documents)

    @property
    def vocab_size(self) -> int:
        return self.tokenizer.vocab_size


def split_documents(text: str) -> list[str]:
    docs = [d.strip() for d in text.split("\n\n")]
    return [d for d in docs if d]


def build_tokenizer(docs: list[str], mode: str) -> TokenizerSpec:
    if mode == "char":
        symbols = sorted({ch for d in docs for ch in d})
        return TokenizerSpec("char", symbols + [UNK])
    words = sorted({w for d in docs for w in d.split()})
    return TokenizerSpec("word", words + [UNK])


def corpus_from_text(text: str, tokenizer: TokenizerSpec | str = "char") -> Corpus:
    """Build a Corpus from raw text; pass a TokenizerSpec to reuse a vocab."""
    docs = split_documents(text)
    if not docs:
        raise ConfigError("corpus is empty (no non-blank documents)")
    if isinstance(tokenizer, str):
        tokenizer = build_tokenizer(docs, tokenizer)
    encoded = [tokenizer.encode(d) for d in docs]
    encoded = [d for d in encoded if len(d) >= 2]
    if not encoded:
        raise ConfigError("corpus has no documents with at least two tokens")
    return Corpus(encoded, tokenizer)


def ingest(path, tokenizer_spec: TokenizerSpec | str = "char") -> Corpus:
    """Read a UTF-8 text file with blank-line document separators."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise OSError(f"cannot read corpus {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"corpus {path} is not UTF-8 text") from e
    return corpus_from_text(text, tokenizer_spec)


_COMMON = ("the a one another saw met told asked thanked followed greeted "
           "visited helped called joined praised").split()
_VERBS = ("went came walked returned traveled moved hurried wandered").split()
_PLACES = ("market harbor library forest tavern bridge garden tower mill "
           "square chapel orchard").split()


def _name_pool(n_names: int, rng) -> list[str]:
    first = ["bel", "cor", "dra", "fen", "gal", "hul", "jor", "kel", "lom",
             "mar", "nim", "oss", "pel", "quor", "ras", "sil", "tor", "ulm",
             "ver", "wyn", "xan", "yor", "zeb", "ash", "brim", "cald"]
    second = ["a", "e", "i", "o", "u", "ar", "en", "il", "on", "ur", "ys"]
    third = ["dan", "fir", "gos", "han", "lin", "mor", "nat", "rik", "sel",
             "ton", "var", "wick", "zor", "bert", "gard", "mund"]
    pool: list[str] = []
    seen = set()
    while len(pool) < n_names:
        name = rng.choice(first) + rng.choice(second) + rng.choice(third)
        if name not in seen:
            seen.add(name)
            pool.append(name)
    return pool


def make_entity_corpus(n_docs: int, seed: int, n_names: int = 160,
                       names_per_doc: int = 3, sentences_per_doc: int = 10,
                       pool_seed: int = 0) -> str:
    """Documents that introduce pool names and reuse them within the document.

    Each document binds every one of its names to a fixed place; sentences
    either restate a binding ("<name> <verb> to the <place> .") or mention two
    names together. Repeated rare names reward any form of adaptation, while
    the name-to-place bindings specifically reward context-dependent
    adaptation: remembering *which* tokens appeared is not enough to predict a
    binding restated later.

    The name pool is fixed by pool_seed (independent of the document seed) so
    separately seeded train/dev splits share one vocabulary.
    """
    rng = np.random.default_rng(seed)
    pool = _name_pool(n_names, np.random.default_rng(pool_seed))
    docs = []
    for _ in range(n_docs):
        names = list(rng.choice(pool, size=names_per_doc, replace=False))
        places = list(rng.choice(_PLACES, size=names_per_doc, replace=False))
        sentences = []
        for s in range(sentences_per_doc):
            subj = int(rng.integers(len(names)))
            if rng.random() < 0.72:
                verb = _VERBS[int(rng.integers(len(_VERBS)))]
                sentences.append(f"{names[subj]} {verb} to the {places[subj]} .")
            else:
                obj = int(rng.integers(len(names)))
                verb = _COMMON[int(rng.integers(2, len(_COMMON)))]
                sentences.append(f"{names[subj]} {verb} {names[obj]} .")
        docs.append(" ".join(sentences))
    return "\n\n".join(docs) + "\n"


def token_frequencies(corpus: Corpus) -> np.ndarray:
    return np.bincount(np.concatenate([np.zeros(0, np.int64), *corpus.documents]),
                       minlength=corpus.vocab_size)
