"""Pretrained word-embedding tables and bag-of-embeddings post vectors.

Tables use 32-bit storage with 64-bit accumulation for means: a realistic
table (millions of words x 300 dims) only fits in memory at float32, while
averaging and all downstream regression run in float64.

Loading reads the file once: a generator splits each line's word from its
values, and numpy's ``loadtxt`` parses the values it hands over, one line at
a time, so a rejected line is named by the generator's count. numpy's float
parser is the only one: a value only Python's float() takes (such as "1_0")
is a data error. Writing formats values with numpy a chunk at a time
(``vectext``), to the same bytes as ``str()`` per value.

``load_vec_cached`` keeps parsed tables in the cache of parsed inputs
(``cache``), keyed by the file's sha256, so a table used again is
memory-mapped from a ``.npy`` file instead of parsed: parsing is most of a
command's time on a large table. This module says only what an entry holds
and what a hit must pass.

Posts arrive as token ids (``TokenIds``): each distinct token is looked up
in the table once, and rows are gathered by id. A post vector is the mean of
its matched rows: ``segment_mean`` takes it for many posts at once, and
``model.score_tokenized_posts`` averages word scores with it too. Word
scores (``EmbeddingTable.dot``), the fingerprint and the load checks read
the float32 table in place or ~1 MB of rows at a time, so nothing holds a
float64 copy or a mask of the whole table.
"""

from __future__ import annotations

import hashlib
import os
from array import array
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import cache
from .errors import DataFormatError, utf8_errors

__all__ = ["EmbeddingTable", "TokenIds", "load_vec_cached", "post_vectors_matrix"]

# Bytes of matched token rows gathered at once by post_vectors_matrix (as
# float32 and float64: 12*dim bytes a row); chunks end on post boundaries.
# tfidf_scores builds its float64 rows in blocks of the same size.
# Bounded by bytes, not rows, so the transient does not grow with dim, and
# small enough to stay in cache: on 3,000 posts at d=200, 1 MB chunks gather
# in ~20 ms, 39 MB chunks in ~42 ms.
_CHUNK_BYTES = 1 << 20

class DuplicateWordError(ValueError):
    """A word stored twice in a table; ``row`` is its second row."""

    def __init__(self, word: str, row: int):
        super().__init__(f"duplicate word in embedding table: {word!r} (row {row})")
        self.word = word
        self.row = row


class EmbeddingTable:
    """Immutable word -> float32 vector map.

    Safe for concurrent reads after construction; nothing mutates it.
    """

    def __init__(self, words, vectors):
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] != len(words):
            raise ValueError("vectors must be a |vocab| x dim matrix")
        if len(words) < 1:
            raise ValueError("an embedding table needs at least one word")
        self.words = list(words)
        self.vectors = vectors
        self.vocab = {}
        for i, w in enumerate(self.words):
            if w in self.vocab:
                raise DuplicateWordError(w, i)
            self.vocab[w] = i
        self._fingerprint = None
        vectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def fingerprint(self) -> str:
        """sha256 over shape, vocabulary and raw float32 bytes; cached.

        Each word is hashed as its UTF-8 bytes and a NUL, 4,096 words to an
        update. The vectors are hashed from the C-contiguous array's own
        buffer, with no copy of it: the digest is the one over
        ``vectors.tobytes()``, so models trained against a table still match
        it.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(b"embedding-table-v1")
            h.update(f"{len(self.words)} {self.dim}".encode())
            for i in range(0, len(self.words), 4096):
                h.update("\x00".join(self.words[i : i + 4096]).encode("utf-8"))
                h.update(b"\x00")
            h.update(self.vectors)
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def dot(self, w) -> np.ndarray:
        """``vectors @ w`` in float64, one value per row, without a float64
        copy of the table.

        Rows are widened to float64 about 1 MB at a time, and each row's
        product is an einsum reduction over that row alone, so the result is
        bit-identical for any chunking. It differs from a BLAS product over a
        float64 copy by summation order only.
        """
        w = np.asarray(w, dtype=np.float64)
        out = np.empty(len(self.words), dtype=np.float64)
        step = max(1, _CHUNK_BYTES // (8 * self.dim))
        for start in range(0, out.size, step):
            rows = self.vectors[start : start + step].astype(np.float64)
            np.einsum("ij,j->i", rows, w, out=out[start : start + step])
        return out

    def save_vec(self, path) -> None:
        """Write the text .vec format; float32 values round-trip bit-exactly.

        Each value is written as ``str(np.float32(v))`` writes it. Rows are
        formatted about 16,000 values at a time with numpy (``vectext``): for
        1e-4 <= |v| < 1e6 the shortest round-trip digits are found by exact
        float64 comparisons and laid out as bytes. A row holding any value
        that path cannot certify (one outside that range, NaN and infinities
        included, a power of two, or a tie between two shortest candidates)
        is written with ``str()`` per value instead.

        Raises ValueError, before the file is opened, for a word holding a
        space, "\\n" or "\\r", which ``load_vec`` could not read back, or
        one that cannot be encoded as UTF-8 (a lone surrogate).
        """
        encoded = []
        for i, w in enumerate(self.words):
            if " " in w or "\n" in w or "\r" in w:
                raise ValueError(
                    f"word {w!r} in row {i} holds a space or a line break, "
                    "which a .vec file cannot store"
                )
            try:
                encoded.append(w.encode())
            except UnicodeEncodeError as exc:
                raise ValueError(f"word {w!r} in row {i} cannot be encoded as UTF-8") from exc
        from .vectext import row_texts

        with open(path, "wb") as f:
            f.write(f"{len(self.words)} {self.dim}\n".encode())
            for w, text in zip(encoded, row_texts(self.vectors)):
                f.write(w + b" " + text + b"\n")

    @classmethod
    def load_vec(cls, path) -> "EmbeddingTable":
        """Parse a text .vec file: header "<count> <dim>", then one word and
        dim values per line, each value after a single space.

        Raises DataFormatError naming the line for a malformed header, wrong
        field count, non-finite or unparseable value, duplicate word, or a
        count mismatch.
        """
        words, vectors = _read_vec(path)
        # A float64 sum of finite float32 values cannot overflow, and NaN or
        # +-inf carries through it, so a row is finite exactly when its sum is;
        # this needs no n x d mask.
        finite = np.isfinite(vectors.sum(axis=1, dtype=np.float64))
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise DataFormatError("non-finite vector value", path=path, line=bad + 2)
        try:
            return cls(words, vectors)
        except DuplicateWordError as exc:
            raise DataFormatError(
                f"duplicate word {exc.word!r}", path=path, line=exc.row + 2
            ) from None


def _read_vec(path):
    """(words, float32 vectors) of a .vec file, in one pass over it.

    A generator splits off each line's word and hands numpy's loadtxt the
    values, so the line a fault is reported at is the one the generator last
    read.
    """
    words = []
    with open(path, "r", encoding="utf-8") as f, utf8_errors(path):
        try:
            count, dim = map(int, f.readline().split())
        except ValueError:
            raise DataFormatError('header must be "<count> <dim>"', path=path, line=1) from None
        if count < 1 or dim < 1:
            raise DataFormatError("count and dim must be positive", path=path, line=1)
        rows = _values_text(path, f, words, dim)
        first = next(rows, None)
        if first is None:
            vectors = None
        elif first.count(" ") != dim - 1:
            # loadtxt takes its column count from the first row, so it would
            # name the second row for a fault in the first.
            raise _row_error(path, dim, line=2)
        else:
            # loadtxt allocates max_rows rows before it reads one. A row of
            # dim values takes at least 2 * dim bytes, so no file holds
            # size // (2 * dim) + 1 of them: the cap never ends the read, and
            # an overstated header allocates no more than the file could hold.
            max_rows = min(count, os.fstat(f.fileno()).st_size // (2 * dim) + 1)
            try:
                vectors = np.loadtxt(
                    chain([first], rows),
                    dtype=np.float32,
                    delimiter=" ",
                    comments=None,
                    quotechar=None,
                    ndmin=2,
                    max_rows=max_rows,
                )
            except UnicodeDecodeError:
                raise  # a ValueError too; utf8_errors names its line
            except ValueError:
                # an unparseable value or a changed column count; loadtxt
                # pulls one line at a time, so it is the generator's last
                raise _row_error(path, dim, line=len(words) + 1) from None
            if next(rows, None) is not None:
                raise DataFormatError(
                    f"more rows than the declared count {count}", path=path, line=len(words) + 1
                )
    if len(words) != count:
        raise DataFormatError(
            f"header declares {count} words but file has {len(words)}", path=path, line=1
        )
    return words, vectors


def load_vec_cached(path) -> tuple[EmbeddingTable, str]:
    """``(EmbeddingTable.load_vec(path), sha256 of the file)``, through the
    cache of parsed inputs (``cache.load``).

    An entry holds the float32 vectors in C order as the array ``vectors``,
    and the words and the table's ``fingerprint()``. A hit is used only when
    it passes the checks a parse makes and these: the vectors are float32
    in C order, so the memory map is the table's own array and no copy of
    it is made, their shape matches the words, every row's float64 sum is
    finite, no word is repeated, and the fingerprint recomputed from the
    entry equals the stored one. Anything else is parsed by ``load_vec``,
    which raises as it always does, and stored again.
    """
    return cache.load(path, "table", EmbeddingTable.load_vec, _pack, _unpack)


def _pack(table):
    return {"vectors": table.vectors}, {"fingerprint": table.fingerprint(), "words": table.words}


def _unpack(meta, array):
    words, vectors = meta.get("words"), array("vectors")
    if not (
        isinstance(words, list)
        and all(isinstance(w, str) for w in words)
        and vectors.dtype == np.float32
        and vectors.flags.c_contiguous
    ):
        return None
    table = EmbeddingTable(words, vectors)  # ValueError, a miss: another shape or a repeated word
    if not (
        np.isfinite(table.vectors.sum(axis=1, dtype=np.float64)).all()
        and table.fingerprint() == meta.get("fingerprint")
    ):
        return None
    return table


def _values_text(path, lines, words, dim):
    """Each line's text after its word, once the word is appended to
    ``words``; a line with no space or no values is an error."""
    for line in lines:
        word, _, values = line.partition(" ")
        # Only values that end in whitespace (fastText's trailing space, or
        # the last line without a newline) pay for rstrip.
        if values[-1:] != "\n" or not values[-2:-1].strip():
            values = values.rstrip()
            if not values:
                raise _row_error(path, dim, line=len(words) + 2)
        words.append(word)
        yield values


def _row_error(path, dim, line) -> DataFormatError:
    return DataFormatError(
        f"expected a word and {dim} numbers, each after a single space", path=path, line=line
    )


class _Interner(dict):
    """Maps each key to the number of keys seen before it first arrived."""

    def __missing__(self, key):
        self[key] = n = len(self)
        return n


@dataclass(eq=False)
class TokenIds:
    """Posts as ids into their distinct tokens: post i's tokens are
    ``tokens[j]`` for j in ``ids[offsets[i]:offsets[i + 1]]``. ``tokens``
    lists each distinct token once, in order of first appearance; ``ids`` is
    int32 and ``offsets`` int64, so a token costs 4 bytes and a post 8,
    besides the distinct strings. ``len()`` is the number of posts.
    """

    tokens: list
    ids: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_lists(cls, token_lists) -> "TokenIds":
        """Intern an iterable of token lists, one list at a time."""
        index = _Interner()
        ids, ends = array("i"), array("q")
        for tokens in token_lists:
            ids.extend(map(index.__getitem__, tokens))
            ends.append(len(ids))
        offsets = np.zeros(len(ends) + 1, dtype=np.int64)
        offsets[1:] = np.frombuffer(ends, dtype=np.int64)
        return cls(list(index), np.frombuffer(ids, dtype=np.int32), offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def select(self, keep) -> "TokenIds":
        """The posts where the boolean mask ``keep`` is true, in order."""
        if keep.all():
            return self
        lengths = np.diff(self.offsets)
        offsets = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
        np.cumsum(lengths[keep], out=offsets[1:])
        return TokenIds(self.tokens, self.ids[np.repeat(keep, lengths)], offsets)


def flat_token_ids(table: EmbeddingTable, posts):
    """Vocabulary row ids of all matched tokens, with per-post match counts.

    ``posts`` is a TokenIds, or token lists, which are interned into one
    first. Each distinct token is looked up in the table once, and the
    posts' row ids are gathered from those lookups by token id.

    Returns (flat_ids, n_matched, n_tokens) where flat_ids concatenates the
    matched ids post by post.
    """
    if not isinstance(posts, TokenIds):
        posts = TokenIds.from_lists(posts)
    rows = np.fromiter(
        map(table.vocab.get, posts.tokens, repeat(-1)), dtype=np.int64, count=len(posts.tokens)
    )
    ids = rows[posts.ids]
    hit = ids >= 0
    # hits[k] = matched tokens among the first k, so a post's match count is
    # the difference at its two token boundaries.
    hits = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(hit, out=hits[1:])
    n_matched = hits[posts.offsets[1:]] - hits[posts.offsets[:-1]]
    return ids[hit], n_matched, np.diff(posts.offsets)


def segment_mean(rows, counts, out) -> None:
    """Mean of each run of ``counts[i]`` consecutive ``rows`` into ``out[i]``.

    ``rows`` (1-D or 2-D) holds exactly ``counts.sum()`` rows; an empty run
    gives NaN. Each run is summed over its own rows only, so a run's mean
    does not depend on the runs around it.
    """
    out.fill(np.nan)
    nonempty = counts > 0
    starts = np.cumsum(counts) - counts
    # Empty runs occupy no rows, so the starts of non-empty runs are strictly
    # increasing, in range, and adjacent in rows: reduceat over them alone
    # sums exactly each run's rows.
    sums = np.add.reduceat(rows, starts[nonempty], axis=0)
    out[nonempty] = sums / counts[nonempty].reshape((-1,) + (1,) * (rows.ndim - 1))


def post_vectors_matrix(table: EmbeddingTable, posts, threads: int = 1):
    """Post vectors for many posts at once; ``posts`` is a TokenIds or token
    lists, as for ``flat_token_ids``.

    Returns (means, n_matched, n_tokens): ``means`` is float64 with one row
    per post that has at least one matched token, in post order, so its rows
    are the posts where ``n_matched > 0``; a post with no match gets no row.
    Posts go in chunks of about 1 MB of gathered rows that never split a
    post, so the rows gathered at once stay bounded whatever the number or
    length of the posts and the table's dim.
    Each post is summed over its own rows only, and chunks (on a thread pool
    when threads > 1) land in disjoint slices of the preallocated output, so
    the result is bit-identical for any chunking and any thread count.
    """
    flat, n_matched, n_tokens = flat_token_ids(table, posts)
    # A post with no match gathers no rows, so dropping its count leaves the
    # others' rows and means as they are.
    counts = n_matched[n_matched > 0]
    n = counts.size
    means = np.empty((n, table.dim), dtype=np.float64)
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])

    chunk_rows = max(1, _CHUNK_BYTES // (12 * table.dim))
    chunks = []
    start = 0
    while start < n:
        # The last post boundary within chunk_rows rows of start; a post
        # longer than that is a chunk of its own.
        end = int(np.searchsorted(bounds, bounds[start] + chunk_rows, side="right")) - 1
        end = max(end, start + 1)
        chunks.append((start, end))
        start = end

    def work(chunk) -> None:
        start, end = chunk
        rows = table.vectors[flat[bounds[start] : bounds[end]]].astype(np.float64)
        segment_mean(rows, counts[start:end], means[start:end])

    if threads > 1 and len(chunks) > 1:
        # concurrent.futures loads logging; a one-thread command skips both.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, chunks))
    else:
        for chunk in chunks:
            work(chunk)
    return means, n_matched, n_tokens
