"""Glue between file ingestion and the model: filtering, vectorization,
training-set assembly, and per-user prediction.

Posts are read and tokenized in one pass; vectorization and scoring then run
over the whole list at once (``post_vectors_matrix`` batches internally).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import dataio, embeddings, textproc, tfidf
from .model import LinearModel, TrainingSet, UserPrediction, score_tokenized_posts


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
    """Post-vector training set; each row carries its author's score."""
    stats = AssemblyStats()
    labeled = [tp for tp in clean_posts if tp.user_id in labels]
    stats.unlabeled = len(clean_posts) - len(labeled)
    means, n_matched, _ = embeddings.post_vectors_matrix(
        table, [tp.tokens for tp in labeled], threads=threads
    )
    usable = n_matched > 0
    stats.no_vector = int((~usable).sum())
    users = [tp.user_id for tp, ok in zip(labeled, usable) if ok]
    if not users:
        raise ValueError("no usable training posts (all filtered, unlabeled, or out of vocabulary)")
    y = np.asarray([labels[u] for u in users])
    groups = np.asarray(users, dtype=object)
    stats.n_posts = len(users)
    stats.n_users = len(set(users))
    return TrainingSet(X=means[usable], y=y, groups=groups), stats


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
    groups = np.asarray([tp.user_id for tp in labeled], dtype=object)
    stats.n_posts = X.shape[0]
    stats.n_users = len(set(groups.tolist()))
    return TrainingSet(X=X, y=y, groups=groups), stats


@dataclass
class PredictionResult:
    predictions: list  # UserPrediction, sorted by user_id
    fallback_users: list = field(default_factory=list)  # no scoreable post


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
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    seen: set[str] = set()
    scores, n_matched = score_tokenized_posts(model, table, [tp.tokens for tp in clean_posts])
    for tp, score, matched in zip(clean_posts, scores, n_matched):
        seen.add(tp.user_id)
        if matched > 0:
            sums[tp.user_id] = sums.get(tp.user_id, 0.0) + float(score)
            counts[tp.user_id] = counts.get(tp.user_id, 0) + 1
    predictions = []
    fallback = []
    for user_id in sorted(seen):
        n = counts.get(user_id, 0)
        if n == 0:
            predictions.append(UserPrediction(user_id, model.training_meta.target_mean, 0))
            fallback.append(user_id)
        else:
            predictions.append(UserPrediction(user_id, sums[user_id] / n, n))
    return PredictionResult(predictions=predictions, fallback_users=fallback)


def predict_users_tfidf(
    model: LinearModel,
    vocab: tfidf.TfidfVocabulary,
    clean_posts,
    stopwords=frozenset(),
) -> PredictionResult:
    by_user: dict[str, list] = {}
    for tp in clean_posts:
        by_user.setdefault(tp.user_id, []).append(tp.tokens)
    predictions = []
    for user_id in sorted(by_user):
        X = tfidf.tfidf_matrix(vocab, by_user[user_id], stopwords)
        scores = X @ model.weights + model.bias
        predictions.append(UserPrediction(user_id, float(scores.mean()), int(scores.size)))
    return PredictionResult(predictions=predictions)


def extract_features(posts) -> list:
    """Per-user surface features from a RawPost stream, sorted by user_id."""
    accumulators = defaultdict(textproc.FeatureAccumulator)
    for post in posts:
        if not textproc.should_filter(post)[0]:
            accumulators[post.user_id].add(post)
    return [accumulators[u].finish(u) for u in sorted(accumulators)]
