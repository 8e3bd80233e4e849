"""Open-vocabulary interpretability: score and rank every word in the table.

A word's score is the model's prediction for a single-word post, w.v + b
(``model.word_scores_array``), so by linearity any post's score is the mean
of its matched words' scores. The ranking is descending by score with
lexicographic tie-break; percentiles are 100*rank/(n-1) over the filtered
vocabulary (top word = 100).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .embeddings import EmbeddingTable, TokenIds
from .model import LinearModel, word_scores_array

__all__ = [
    "WordScore",
    "iter_ranked",
    "project_2d",
    "training_token_counts",
]


@dataclass(frozen=True)
class WordScore:
    word: str
    score: float
    freq: int | None
    percentile: float


def training_token_counts(posts) -> Counter:
    """Occurrence counts over training posts, the default min-count source:
    one bincount over the token ids of a TokenIds (a ``pipeline.Corpus`` is
    one), or of token lists, which are interned first."""
    if not isinstance(posts, TokenIds):
        posts = TokenIds.from_lists(posts)
    counts = np.bincount(posts.ids, minlength=len(posts.tokens))
    return Counter(dict(zip(posts.tokens, counts.tolist())))


def _ranked_order(table: EmbeddingTable, scores: np.ndarray, keep: np.ndarray) -> np.ndarray:
    kept_idx = np.flatnonzero(keep)
    words = np.asarray(table.words, dtype=object)[kept_idx]
    # lexsort: last key is primary; descending score, then ascending word.
    order = np.lexsort((words, -scores[kept_idx]))
    return kept_idx[order]


def iter_ranked(
    model: LinearModel,
    table: EmbeddingTable,
    min_count: int = 0,
    counts=None,
    head: int | None = None,
    tail: int | None = None,
) -> Iterator[WordScore]:
    """Yield WordScore rows in rank order without materializing the list.

    ``counts`` maps word -> occurrence count and is required when
    min_count > 0; words below min_count (or unseen) are filtered out before
    percentiles are assigned. ``head``/``tail`` restrict the yield to the
    first and/or last rows of the full ranking (percentiles still come from
    the whole filtered vocabulary).
    """
    scores = word_scores_array(model, table)
    if min_count > 0:
        if counts is None:
            raise ValueError("min_count > 0 requires a frequency source")
        keep = np.fromiter(
            (counts.get(w, 0) >= min_count for w in table.words),
            dtype=bool,
            count=len(table.words),
        )
        if not keep.any():
            raise ValueError(f"no word reaches min_count={min_count}")
    else:
        keep = np.ones(len(table.words), dtype=bool)
    order = _ranked_order(table, scores, keep)
    n = order.size
    denom = float(n - 1) if n > 1 else 1.0
    if head is None and tail is None:
        positions = range(n)
    else:
        chosen = set(range(min(head or 0, n)))
        chosen.update(range(max(n - (tail or 0), 0), n))
        positions = sorted(chosen)
    for pos in positions:
        idx = order[pos]
        word = table.words[idx]
        freq = counts.get(word) if counts is not None else None
        percentile = 100.0 * (n - 1 - pos) / denom if n > 1 else 100.0
        yield WordScore(word=word, score=float(scores[idx]), freq=freq, percentile=percentile)


def project_2d(selected: list[WordScore], table: EmbeddingTable):
    """Top-2 PCA coordinates of the selected words' centered vectors.

    Returns (word, x, y, score) tuples in input order. The sign convention
    makes the largest-magnitude loading of each component positive, which
    fixes the output up to nothing: it is fully deterministic. A rank-1
    selection yields an exactly-zero second coordinate; a rank-0 selection
    (all vectors identical) is an error, as is a selection of fewer than 3
    words or any word the table does not store exactly as given.
    """
    if len(selected) < 3:
        raise ValueError("2-d projection requires at least 3 words")
    rows = []
    for ws in selected:
        # Ranked words are table.words verbatim, so each is found as stored.
        idx = table.vocab.get(ws.word)
        if idx is None:
            raise ValueError(f"word {ws.word!r} is not in the embedding table")
        rows.append(idx)
    M = table.vectors[rows].astype(np.float64)
    M -= M.mean(axis=0)
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    tol = max(M.shape) * np.finfo(np.float64).eps * (S[0] if S.size else 0.0)
    rank = int((S > tol).sum())
    if rank < 1:
        raise ValueError("selected vectors are all identical; nothing to project")
    coords = U[:, :2] * S[:2]
    if S.size < 2:
        coords = np.hstack([coords, np.zeros((M.shape[0], 1))])
    for k in range(2):
        if k < Vt.shape[0] and Vt[k].size:
            j = int(np.argmax(np.abs(Vt[k])))
            if Vt[k, j] < 0:
                coords[:, k] = -coords[:, k]
    return [
        (ws.word, float(coords[i, 0]), float(coords[i, 1]), ws.score)
        for i, ws in enumerate(selected)
    ]
