"""Top-k unigram/bigram TF-IDF baseline vectorizer.

Candidate terms are all unigrams and adjacent-pair bigrams of the token
sequence after stopword removal (bigrams join surviving tokens, so removing a
stopword can bridge its neighbours). The vocabulary keeps the k terms with the
highest total occurrence count, ties broken lexicographically on the
space-joined term string. Weights are raw tf times the smoothed idf

    idf(t) = ln((1 + n_docs) / (1 + df(t))) + 1,

and each post vector is L2-normalized (a zero vector stays zero).

Posts arrive as token ids (``embeddings.TokenIds``; token lists are interned
first). One stopword mask over the distinct tokens drops stopword ids, and
every term occurrence becomes an int64 code with its post's index: token id
t for a unigram, ``T + a*T + b`` for the bigram of ids a and b, where T is
the number of distinct tokens. Tokens hold no space, so no unigram's string
is a bigram's. ``build_vocab`` counts the codes with numpy and spells out as
strings only the candidates for the top k. ``tfidf_matrix`` maps each
vocabulary term to its code once, scatters count * idf into a dense X and
normalizes each row as a per-post vector would be (``math.sqrt(x @ x)``),
so X has the same bits as stacking those vectors. ``tfidf_scores`` scores
the same rows about 1 MB at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import _CHUNK_BYTES, TokenIds
from .errors import DataFormatError, utf8_errors

__all__ = ["TfidfVocabulary", "build_vocab", "tfidf_matrix", "tfidf_scores", "load_stopwords"]


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
    """Terms in column order, each listed once, with their df and idf."""

    terms: list[str]
    df: dict[str, int]
    idf: dict[str, float]
    n_docs: int

    def __post_init__(self):
        seen = set()
        for t in self.terms:
            if t in seen:
                raise ValueError(f"`terms` lists {t!r} twice")
            seen.add(t)

    def __len__(self) -> int:
        return len(self.terms)

    def to_dict(self, stopwords=frozenset()) -> dict:
        """The ``tfidf`` block of a model file: this vocabulary and the
        stopwords it was built with."""
        return {"terms": self.terms, "df": self.df, "idf": self.idf, "n_docs": self.n_docs,
                "stopwords": sorted(stopwords)}

    @classmethod
    def from_dict(cls, block, path=None) -> tuple["TfidfVocabulary", frozenset[str]]:
        """Inverse of to_dict. A missing or malformed block, or one that
        lists a term twice, raises DataFormatError naming ``path``, the model
        file it came from."""
        if not isinstance(block, dict):
            raise DataFormatError("tf-idf model has no `tfidf` object", path=path)
        try:
            terms = list(block["terms"])
            vocab = cls(
                terms=terms,
                df={t: int(block["df"][t]) for t in terms},
                idf={t: float(block["idf"][t]) for t in terms},
                n_docs=int(block.get("n_docs", 0)),
            )
            stopwords = frozenset(block.get("stopwords", []))
        except KeyError as exc:
            raise DataFormatError(f"`tfidf` has no entry {exc.args[0]!r}", path=path) from None
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"bad `tfidf` object: {exc}", path=path) from None
        bad = next((t for t in terms if not math.isfinite(vocab.idf[t])), None)
        if bad is not None:
            raise DataFormatError(f"`idf` of {bad!r} is not finite: {vocab.idf[bad]}", path=path)
        return vocab, stopwords


def _token_ids(corpus) -> TokenIds:
    return corpus if isinstance(corpus, TokenIds) else TokenIds.from_lists(corpus)


def _stop_mask(tokens, stopwords) -> np.ndarray:
    """Per distinct token, whether it is a stopword. A token that holds a
    space is refused: its unigram would be spelled like a bigram."""
    bad = next((t for t in tokens if " " in t), None)
    if bad is not None:
        raise ValueError(f"token {bad!r} holds a space, so its terms would be ambiguous")
    return np.fromiter(map(stopwords.__contains__, tokens), dtype=bool, count=len(tokens))


def _occurrences(posts: TokenIds, stop):
    """Every term occurrence of every post, as ``(codes, post)``: int64
    arrays with the occurrence's term code and the index of its post.
    ``stop`` is ``_stop_mask`` of the posts' tokens.

    Unigrams come first, post by post, then the bigrams. With T distinct
    tokens, token id t is the code of its unigram and ``T + a*T + b`` that of
    the bigram "a b"; codes fit int64 for any int32 id.
    """
    n_tokens = len(posts.tokens)
    keep = ~stop[posts.ids]
    ids = posts.ids[keep].astype(np.int64)
    post = np.repeat(np.arange(len(posts)), np.diff(posts.offsets))[keep]
    pair = post[1:] == post[:-1]
    bigrams = n_tokens + ids[:-1][pair] * n_tokens + ids[1:][pair]
    return np.concatenate([ids, bigrams]), np.concatenate([post, post[1:][pair]])


def _runs(a):
    """The distinct values of the sorted array ``a`` and how often each
    occurs. ``np.unique(a, return_counts=True)`` gives the same, but took
    20-40 times as long on 138,000 int64 codes (numpy 2.4)."""
    edge = np.empty(a.size, dtype=bool)
    edge[:1] = True
    np.not_equal(a[1:], a[:-1], out=edge[1:])
    starts = np.flatnonzero(edge)
    return a[starts], np.diff(starts, append=a.size)


def _term(tokens, n_tokens: int, code: int) -> str:
    if code < n_tokens:
        return tokens[code]
    a, b = divmod(code - n_tokens, n_tokens)
    return f"{tokens[a]} {tokens[b]}"


def build_vocab(corpus, stopwords=frozenset(), k: int = 1000) -> TfidfVocabulary:
    """Select the top-k terms of a tokenized corpus by total occurrence count.

    ``corpus`` is a TokenIds or an iterable of token lists (one per post),
    which is interned first. Deterministic for a fixed corpus: the ranking
    key is (-count, term). Only the terms counted at least as often as the
    k-th most frequent one are spelled out and sorted.
    """
    posts = _token_ids(corpus)
    n_docs = len(posts)
    if n_docs == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    codes, post = _occurrences(posts, _stop_mask(posts.tokens, stopwords))
    found, term_of, totals = np.unique(codes, return_inverse=True, return_counts=True)
    # A post counts once toward a term's df: one per distinct (term, post).
    pairs, _ = _runs(np.sort(term_of * n_docs + post))
    df = np.bincount(pairs // n_docs, minlength=found.size)
    candidates = np.arange(found.size)
    if 0 < k < found.size:
        kth = np.partition(totals, found.size - k)[found.size - k]
        candidates = candidates[totals >= kth]
    n_tokens = len(posts.tokens)
    ranked = sorted(
        (-count, _term(posts.tokens, n_tokens, code), n)
        for code, count, n in zip(found[candidates].tolist(), totals[candidates].tolist(), df[candidates].tolist())
    )[:k]
    terms = [t for _, t, _ in ranked]
    df = {t: n for _, t, n in ranked}
    idf = {t: math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in terms}
    return TfidfVocabulary(terms=terms, df=df, idf=idf, n_docs=n_docs)


def _cells_over(vocab: TfidfVocabulary, tokens, stopwords):
    """A function from posts over the distinct ``tokens`` (a TokenIds) to
    the cells of their raw tf-idf rows that a vocabulary term occurs in:
    ``(post, column, count * idf)``, in row-major order. What depends only
    on the tokens and the vocabulary is worked out here, once."""
    stop = _stop_mask(tokens, stopwords)
    words = {w for term in vocab.terms for w in term.split(" ")}
    index = {t: i for i, t in enumerate(tokens) if t in words}
    n_tokens, k = len(tokens), len(vocab)
    codes = np.full(k, -1, dtype=np.int64)
    for column, term in enumerate(vocab.terms):
        parts = [index.get(w, -1) for w in term.split(" ")]
        # Tokens hold no space, so a term of three or more words never occurs.
        if -1 in parts or len(parts) > 2:
            continue
        codes[column] = parts[0] if len(parts) == 1 else n_tokens + parts[0] * n_tokens + parts[1]
    columns = np.flatnonzero(codes >= 0)
    columns = columns[np.argsort(codes[columns])]
    # The sentinel is above every code, so each occurrence finds a place.
    known = np.append(codes[columns], np.iinfo(np.int64).max)
    idf = np.array([vocab.idf[t] for t in vocab.terms], dtype=np.float64)

    def cells(posts: TokenIds):
        occurrences, post = _occurrences(posts, stop)
        at = np.searchsorted(known, occurrences)
        hit = known[at] == occurrences
        found, counts = _runs(np.sort(post[hit] * k + columns[at[hit]]))
        post, column = np.divmod(found, k)
        return post, column, counts * idf[column]

    return cells


def _fill(rows, post, column, weight) -> None:
    """Scatter cells (``post`` ascending) into the zeroed ``rows`` and
    L2-normalize each row that holds one, as ``math.sqrt(row @ row)`` (a zero
    row stays zero)."""
    rows[post, column] = weight
    for i in _runs(post)[0].tolist():
        row = rows[i]
        norm = math.sqrt(float(row @ row))
        if norm > 0.0:
            row /= norm


def tfidf_matrix(vocab: TfidfVocabulary, corpus, stopwords=frozenset()) -> np.ndarray:
    """Dense float64 tf-idf matrix, one L2-normalized row per post of a
    TokenIds or an iterable of token lists. Beyond the n x k output it holds
    only arrays the size of the posts' tokens."""
    posts = _token_ids(corpus)
    X = np.zeros((len(posts), len(vocab)), dtype=np.float64)
    _fill(X, *_cells_over(vocab, posts.tokens, stopwords)(posts))
    return X


def tfidf_scores(vocab: TfidfVocabulary, corpus, w, b, stopwords=frozenset()) -> np.ndarray:
    """``tfidf_matrix(vocab, corpus, stopwords)[i] @ w + b`` for every post
    i, with the same bits. Posts go about 1 MB of rows at a time, so beyond
    the scores what it holds depends on k and the distinct tokens, not on the
    number of posts."""
    posts = _token_ids(corpus)
    cells = _cells_over(vocab, posts.tokens, stopwords)
    n = len(posts)
    step = max(1, _CHUNK_BYTES // (8 * max(1, len(vocab))))
    block = np.empty((min(step, n), len(vocab)), dtype=np.float64)
    scores = np.empty(n, dtype=np.float64)
    for start in range(0, n, step):
        end = min(start + step, n)
        a, z = posts.offsets[start], posts.offsets[end]
        rows = block[: end - start]
        rows.fill(0.0)
        _fill(rows, *cells(TokenIds(posts.tokens, posts.ids[a:z], posts.offsets[start : end + 1] - a)))
        for i, row in enumerate(rows):
            scores[start + i] = row @ w + b
    return scores
