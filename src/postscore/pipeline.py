"""Glue between file ingestion and the model: filtering, the posts corpus,
vectorization, training-set assembly, and per-user prediction.

A posts file becomes one ``Corpus``: its kept posts as an int32 user code
and int32 token ids each, with the distinct user ids and tokens stored once,
and the ``FilterStats`` of the read. ``iter_clean_posts`` is the one filter
and tokenize rule; ``load_corpus`` streams it into a corpus, interning as it
goes, and keeps the corpus in the cache of parsed inputs (``cache``) under
the file's sha256, so a posts file used again is loaded, not re-read; this
module says only what an entry holds and what a hit must pass. Every
model route reads a corpus: post vectors and scores gather table rows by
token id (``embeddings.flat_token_ids``), and the tf-idf routes count terms
as codes made from the token ids (``tfidf``). A list of TokenizedPost is
interned into a corpus on entry. Both predict routes score every post
first and then take one per-user mean (``_user_means``), with no per-user
loop, dict or matrix.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass

import numpy as np

from . import cache, dataio, embeddings, textproc, tfidf
from .embeddings import TokenIds
from .model import LinearModel, TrainingSet, UserPrediction, group_codes, score_tokenized_posts
from .textproc import extract_features  # noqa: F401  (kept for callers of pipeline.extract_features)

@dataclass
class FilterStats:
    kept: int = 0
    url: int = 0
    repost: int = 0
    empty: int = 0

    def record(self, reason: str | None) -> None:
        if reason is None:
            self.kept += 1
        else:
            setattr(self, reason, getattr(self, reason) + 1)

    @property
    def removed(self) -> int:
        return self.url + self.repost + self.empty


def iter_clean_posts(posts, stats: FilterStats | None = None):
    """Filter and tokenize a RawPost stream."""
    for post in posts:
        filtered, reason = textproc.should_filter(post)
        if stats is not None:
            stats.record(reason)
        if not filtered:
            yield textproc.tokenize_post(post)


def load_clean_posts(path, stats: FilterStats | None = None) -> list:
    return list(iter_clean_posts(dataio.iter_posts_jsonl(path), stats))


@dataclass(eq=False)
class Corpus(TokenIds):
    """Kept posts as token ids (``TokenIds``) and user codes: post i is by
    ``users[codes[i]]``. ``users`` lists each distinct user id once, in order
    of first appearance, and ``codes`` is int32. ``stats`` counts the posts
    the filter kept and removed."""

    users: list
    codes: np.ndarray
    stats: FilterStats

    @classmethod
    def from_posts(cls, clean_posts, stats: FilterStats | None = None) -> "Corpus":
        """Intern a TokenizedPost iterable, one post at a time; ``stats``
        defaults to every post kept."""
        users, codes = {}, array("i")

        def token_lists():
            for tp in clean_posts:
                codes.append(users.setdefault(tp.user_id, len(users)))
                yield tp.tokens

        text = TokenIds.from_lists(token_lists())
        if stats is None:
            stats = FilterStats(kept=len(codes))
        return cls(text.tokens, text.ids, text.offsets, list(users),
                   np.frombuffer(codes, dtype=np.int32), stats)

    def labeled(self, labels: dict) -> np.ndarray:
        """Per post, whether its author has a label."""
        has = np.fromiter((u in labels for u in self.users), dtype=bool, count=len(self.users))
        return has[self.codes]

    def digest(self) -> str:
        """sha256 over the stats, the distinct strings and the arrays. Each
        list of strings is hashed as its count, then, 4,096 strings at a
        time, their lengths and UTF-8 bytes: no two lists hash alike, and no
        text of a whole list is built."""
        h = hashlib.sha256(b"postscore-corpus-v2")
        s = self.stats
        h.update(np.array([s.kept, s.url, s.repost, s.empty], dtype=np.int64))
        for strings in (self.users, self.tokens):
            h.update(len(strings).to_bytes(8, "little"))
            for i in range(0, len(strings), 4096):
                block = strings[i : i + 4096]
                h.update(np.fromiter(map(len, block), dtype=np.int64, count=len(block)))
                h.update("".join(block).encode("utf-8", "surrogatepass"))
        for a in (self.codes, self.offsets, self.ids):
            h.update(a)
        return h.hexdigest()


def _as_corpus(clean_posts) -> Corpus:
    return clean_posts if isinstance(clean_posts, Corpus) else Corpus.from_posts(clean_posts)


def load_corpus(path) -> tuple[Corpus, str]:
    """``(corpus, sha256 of the file)`` of a posts file: ``iter_clean_posts``
    over its posts, through the cache of parsed inputs (``cache.load``).

    An entry holds the codes, offsets and ids as arrays, and the stats, the
    users, the tokens and the corpus's ``digest()``. A hit is used only when
    each array has its dtype and the shape the stats and offsets give, the
    codes and ids are in range, the offsets start at 0 and never fall, no
    user or token is listed twice, and the digest recomputed from the entry
    equals the stored one. Anything else is read again from the file, which
    raises as a read always does, and stored again.
    """
    def parse(path):
        stats = FilterStats()
        return Corpus.from_posts(iter_clean_posts(dataio.iter_posts_jsonl(path), stats), stats)

    return cache.load(path, "posts", parse, _pack, _unpack)


def _pack(corpus: Corpus):
    s = corpus.stats
    return ({"codes": corpus.codes, "offsets": corpus.offsets, "ids": corpus.ids},
            {"digest": corpus.digest(), "stats": [s.kept, s.url, s.repost, s.empty],
             "users": corpus.users, "tokens": corpus.tokens})


def _unpack(meta, array):
    users, tokens, counts = meta.get("users"), meta.get("tokens"), meta.get("stats")
    if not (
        _distinct_strings(users)
        and _distinct_strings(tokens)
        and isinstance(counts, list)
        and len(counts) == 4
        and all(type(c) is int and c >= 0 for c in counts)
    ):
        return None
    codes, offsets, ids = array("codes"), array("offsets"), array("ids")
    n = counts[0]
    if not (
        codes.dtype == np.int32 and codes.shape == (n,)
        and offsets.dtype == np.int64 and offsets.shape == (n + 1,)
        and ids.dtype == np.int32 and ids.ndim == 1
        and offsets[0] == 0 and offsets[-1] == ids.size
        and (np.diff(offsets) >= 0).all()
        and _in_range(codes, len(users))
        and _in_range(ids, len(tokens))
    ):
        return None
    corpus = Corpus(tokens, ids, offsets, users, codes, FilterStats(*counts))
    return corpus if corpus.digest() == meta.get("digest") else None


def _distinct_strings(items) -> bool:
    return isinstance(items, list) and all(isinstance(x, str) for x in items) and len(set(items)) == len(items)


def _in_range(a, n: int) -> bool:
    return a.size == 0 or (int(a.min()) >= 0 and int(a.max()) < n)


@dataclass
class AssemblyStats:
    n_posts: int = 0
    n_users: int = 0
    no_vector: int = 0  # posts dropped: no in-vocabulary token
    unlabeled: int = 0  # posts dropped: author has no target


def build_embedding_training(
    clean_posts,
    labels: dict,
    table: embeddings.EmbeddingTable,
    threads: int = 1,
) -> tuple[TrainingSet, AssemblyStats]:
    """Post-vector training set; each row carries its author's score.

    ``clean_posts`` is a Corpus or TokenizedPosts. Rows are the labeled
    posts with at least one in-vocabulary token, in post order.
    ``post_vectors_matrix`` returns exactly the means of those posts, so its
    output is X and no other n x d matrix is made; each row is the post's own
    mean, bit-identical for any chunking or thread count.
    """
    corpus = _as_corpus(clean_posts)
    stats = AssemblyStats()
    labeled = corpus.labeled(labels)
    stats.unlabeled = len(corpus) - int(labeled.sum())
    X, n_matched, _ = embeddings.post_vectors_matrix(table, corpus.select(labeled), threads=threads)
    usable = n_matched > 0
    stats.no_vector = int((~usable).sum())
    codes = corpus.codes[labeled][usable]
    if not codes.size:
        raise ValueError("no usable training posts (all filtered, unlabeled, or out of vocabulary)")
    ts = _training_set(X, corpus, codes, labels)
    stats.n_posts = ts.n_posts
    stats.n_users = len(ts.users)
    return ts, stats


def _training_set(X, corpus: Corpus, codes, labels: dict) -> TrainingSet:
    """X with each row's author, by user code, and that author's label."""
    users = np.asarray(corpus.users, dtype=object)
    y = np.asarray([labels.get(u, 0.0) for u in corpus.users])
    return TrainingSet(X=X, y=y[codes], groups=users[codes])


def build_tfidf_training(
    clean_posts,
    labels: dict,
    vocab: tfidf.TfidfVocabulary,
    stopwords=frozenset(),
) -> tuple[TrainingSet, AssemblyStats]:
    """tf-idf training set over the same posts (a Corpus or TokenizedPosts);
    zero vectors are kept (they carry the post's bias signal, unlike an
    absent embedding)."""
    corpus = _as_corpus(clean_posts)
    stats = AssemblyStats()
    labeled = corpus.labeled(labels)
    stats.unlabeled = len(corpus) - int(labeled.sum())
    if not labeled.any():
        raise ValueError("no labeled training posts")
    X = tfidf.tfidf_matrix(vocab, corpus.select(labeled), stopwords)
    ts = _training_set(X, corpus, corpus.codes[labeled], labels)
    stats.n_posts = ts.n_posts
    stats.n_users = len(ts.users)
    return ts, stats


@dataclass
class PredictionResult:
    predictions: list  # UserPrediction, sorted by user_id
    fallback_users: list  # no scoreable post, sorted


def _user_means(model: LinearModel, posts, scores, counted) -> PredictionResult:
    """Per-user mean of the counted posts' scores, users in sorted order;
    ``posts`` is a Corpus or each post's user id.

    Each user's counted scores are added in post order. A user with no
    counted post falls back to the training target mean with
    n_posts_used == 0 and is listed in fallback_users.
    """
    if isinstance(posts, Corpus):
        users, rank = group_codes(posts.users)
        codes = rank[posts.codes]
    else:
        users, codes = group_codes(posts)
    sums = np.bincount(codes[counted], weights=scores[counted], minlength=len(users))
    counts = np.bincount(codes[counted], minlength=len(users))
    fallback = counts == 0
    means = np.where(fallback, model.training_meta.target_mean, sums / np.maximum(counts, 1))
    rows = zip(users, means.tolist(), counts.tolist())
    predictions = [UserPrediction(u, mean, n) for u, mean, n in rows]
    fallback_users = [u for u, f in zip(users, fallback.tolist()) if f]
    return PredictionResult(predictions=predictions, fallback_users=fallback_users)


def predict_users_from_posts(
    model: LinearModel,
    table: embeddings.EmbeddingTable,
    clean_posts,
) -> PredictionResult:
    """Per-user mean of post scores over the embedding route, for a Corpus
    or TokenizedPosts.

    Uses the word-score fast path; posts with no in-vocabulary token do not
    count toward the mean, and users with no scoreable post fall back to the
    training target mean with n_posts_used == 0.
    """
    corpus = _as_corpus(clean_posts)
    scores, n_matched = score_tokenized_posts(model, table, corpus)
    return _user_means(model, corpus, scores, n_matched > 0)


def predict_users_tfidf(
    model: LinearModel,
    vocab: tfidf.TfidfVocabulary,
    clean_posts,
    stopwords=frozenset(),
) -> PredictionResult:
    """Per-user mean of post scores over the tf-idf route, for a Corpus or
    TokenizedPosts. Every post counts: one with no vocabulary term has a zero
    vector and scores the bias."""
    corpus = _as_corpus(clean_posts)
    scores = tfidf.tfidf_scores(vocab, corpus, model.weights, model.bias, stopwords)
    return _user_means(model, corpus, scores, np.ones(scores.size, dtype=bool))
