"""Glue between file ingestion and the model: filtering, vectorization,
training-set assembly, and per-user prediction.

Posts are read and tokenized in one pass; vectorization and scoring then run
over the whole list at once (``post_vectors_matrix`` batches internally).
Both predict routes score every post first and then take one per-user mean
(``_user_means``), with no per-user loop, dict or matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataio, embeddings, textproc, tfidf
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

    Rows are the labeled posts with at least one in-vocabulary token, in post
    order. ``post_vectors_matrix`` returns exactly the means of those posts,
    so its output is X and no other n x d matrix is made; each row is the
    post's own mean, bit-identical for any chunking or thread count.
    """
    stats = AssemblyStats()
    labeled = [tp for tp in clean_posts if tp.user_id in labels]
    stats.unlabeled = len(clean_posts) - len(labeled)
    X, n_matched, _ = embeddings.post_vectors_matrix(
        table, [tp.tokens for tp in labeled], threads=threads
    )
    usable = n_matched > 0
    stats.no_vector = int((~usable).sum())
    users = [tp.user_id for tp, ok in zip(labeled, usable) if ok]
    if not users:
        raise ValueError("no usable training posts (all filtered, unlabeled, or out of vocabulary)")
    y = np.asarray([labels[u] for u in users])
    ts = TrainingSet(X=X, y=y, groups=np.asarray(users, dtype=object))
    stats.n_posts = ts.n_posts
    stats.n_users = len(ts.users)
    return ts, stats


def build_tfidf_training(
    clean_posts,
    labels: dict,
    vocab: tfidf.TfidfVocabulary,
    stopwords=frozenset(),
) -> tuple[TrainingSet, AssemblyStats]:
    """tf-idf training set over the same posts; zero vectors are kept (they
    carry the post's bias signal, unlike an absent embedding)."""
    stats = AssemblyStats()
    labeled = [tp for tp in clean_posts if tp.user_id in labels]
    stats.unlabeled = len(clean_posts) - len(labeled)
    if not labeled:
        raise ValueError("no labeled training posts")
    X = tfidf.tfidf_matrix(vocab, [tp.tokens for tp in labeled], stopwords)
    y = np.asarray([labels[tp.user_id] for tp in labeled])
    ts = TrainingSet(X=X, y=y, groups=np.asarray([tp.user_id for tp in labeled], dtype=object))
    stats.n_posts = ts.n_posts
    stats.n_users = len(ts.users)
    return ts, stats


@dataclass
class PredictionResult:
    predictions: list  # UserPrediction, sorted by user_id
    fallback_users: list  # no scoreable post, sorted


def _user_means(model: LinearModel, user_ids, scores, counted) -> PredictionResult:
    """Per-user mean of the counted posts' scores, users in sorted order.

    Each user's counted scores are added in post order. A user with no
    counted post falls back to the training target mean with
    n_posts_used == 0 and is listed in fallback_users.
    """
    users, codes = group_codes(user_ids)
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
    """Per-user mean of post scores over the embedding route.

    Uses the word-score fast path; posts with no in-vocabulary token do not
    count toward the mean, and users with no scoreable post fall back to the
    training target mean with n_posts_used == 0.
    """
    scores, n_matched = score_tokenized_posts(model, table, [tp.tokens for tp in clean_posts])
    return _user_means(model, [tp.user_id for tp in clean_posts], scores, n_matched > 0)


def predict_users_tfidf(
    model: LinearModel,
    vocab: tfidf.TfidfVocabulary,
    clean_posts,
    stopwords=frozenset(),
) -> PredictionResult:
    """Per-user mean of post scores over the tf-idf route. Every post counts:
    one with no vocabulary term has a zero vector and scores the bias."""
    w, b = model.weights, model.bias
    scores = np.array([tfidf.tfidf_vector(vocab, tp.tokens, stopwords) @ w + b for tp in clean_posts])
    return _user_means(model, [tp.user_id for tp in clean_posts], scores, np.ones(scores.size, dtype=bool))

