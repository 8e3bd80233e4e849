"""Top-k unigram/bigram TF-IDF baseline vectorizer.

Candidate terms are all unigrams and adjacent-pair bigrams of the token
sequence after stopword removal (bigrams join surviving tokens, so removing a
stopword can bridge its neighbours). The vocabulary keeps the k terms with the
highest total occurrence count, ties broken lexicographically on the
space-joined term string. Weights are raw tf times the smoothed idf

    idf(t) = ln((1 + n_docs) / (1 + df(t))) + 1,

and each post vector is L2-normalized (a zero vector stays zero).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, utf8_errors

__all__ = ["TfidfVocabulary", "build_vocab", "tfidf_vector", "tfidf_matrix", "load_stopwords"]


def load_stopwords(path) -> frozenset[str]:
    """One word per line, UTF-8; blank lines ignored."""
    words = set()
    with open(path, "r", encoding="utf-8") as f, utf8_errors(path):
        for line in f:
            w = line.strip()
            if w:
                words.add(w)
    return frozenset(words)


@dataclass
class TfidfVocabulary:
    terms: list[str]
    df: dict[str, int]
    idf: dict[str, float]
    n_docs: int
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)

    def to_dict(self, stopwords=frozenset()) -> dict:
        """The ``tfidf`` block of a model file: this vocabulary and the
        stopwords it was built with."""
        return {"terms": self.terms, "df": self.df, "idf": self.idf, "n_docs": self.n_docs,
                "stopwords": sorted(stopwords)}

    @classmethod
    def from_dict(cls, block, path=None) -> tuple["TfidfVocabulary", frozenset[str]]:
        """Inverse of to_dict. A missing or malformed block raises
        DataFormatError naming ``path``, the model file it came from."""
        if not isinstance(block, dict):
            raise DataFormatError("tf-idf model has no `tfidf` object", path=path)
        try:
            terms = list(block["terms"])
            df = {t: int(block["df"][t]) for t in terms}
            idf = {t: float(block["idf"][t]) for t in terms}
            n_docs = int(block.get("n_docs", 0))
            stopwords = frozenset(block.get("stopwords", []))
        except KeyError as exc:
            raise DataFormatError(f"`tfidf` has no entry {exc.args[0]!r}", path=path) from None
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"bad `tfidf` object: {exc}", path=path) from None
        bad = next((t for t in terms if not math.isfinite(idf[t])), None)
        if bad is not None:
            raise DataFormatError(f"`idf` of {bad!r} is not finite: {idf[bad]}", path=path)
        return cls(terms=terms, df=df, idf=idf, n_docs=n_docs), stopwords


def _post_terms(tokens, stopwords) -> list[str]:
    """Unigrams and adjacent bigrams of the stopword-filtered sequence."""
    kept = [t for t in tokens if t not in stopwords]
    terms = list(kept)
    terms.extend(f"{a} {b}" for a, b in zip(kept, kept[1:]))
    return terms


def build_vocab(corpus, stopwords=frozenset(), k: int = 1000) -> TfidfVocabulary:
    """Select the top-k terms of a tokenized corpus by total occurrence count.

    ``corpus`` is an iterable of token lists (one per post). Deterministic for
    a fixed corpus: the ranking key is (-count, term).
    """
    totals: Counter = Counter()
    df: Counter = Counter()
    n_docs = 0
    for tokens in corpus:
        n_docs += 1
        terms = _post_terms(tokens, stopwords)
        totals.update(terms)
        df.update(set(terms))
    if n_docs == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    terms = [t for t, _ in ranked]
    idf = {t: math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in terms}
    return TfidfVocabulary(terms=terms, df={t: df[t] for t in terms}, idf=idf, n_docs=n_docs)


def tfidf_vector(vocab: TfidfVocabulary, tokens, stopwords=frozenset()) -> np.ndarray:
    """L2-normalized tf-idf vector of one post over the fixed vocabulary."""
    vec = np.zeros(len(vocab.terms), dtype=np.float64)
    index = vocab.index
    for term, count in Counter(_post_terms(tokens, stopwords)).items():
        i = index.get(term)
        if i is not None:
            vec[i] = count * vocab.idf[term]
    norm = math.sqrt(float(vec @ vec))
    if norm > 0.0:
        vec /= norm
    return vec


def tfidf_matrix(vocab: TfidfVocabulary, corpus, stopwords=frozenset()) -> np.ndarray:
    """Stack of tfidf_vector rows for a tokenized corpus."""
    out = np.zeros((len(corpus), len(vocab.terms)), dtype=np.float64)
    for i, tokens in enumerate(corpus):
        out[i] = tfidf_vector(vocab, tokens, stopwords)
    return out
