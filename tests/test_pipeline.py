import json
import shutil
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postscore import cache, dataio, embeddings, pipeline, wordrank
from postscore.embeddings import EmbeddingTable, flat_token_ids
from postscore.model import LinearModel, TrainingMeta, fit, score_tokenized_posts
from postscore.pipeline import (
    FilterStats,
    build_embedding_training,
    build_tfidf_training,
    iter_clean_posts,
    predict_users_from_posts,
    predict_users_tfidf,
)
from postscore.textproc import RawPost, TokenizedPost, extract_features, should_filter, tokenize
from postscore.tfidf import build_vocab

from oracles import post_vector, predict_post, tfidf_vector, token_lists


def _posts():
    return [
        RawPost("u1", "p1", "a b"),
        RawPost("u1", "p2", "смотри http://spam"),
        RawPost("u1", "p3", "c c d"),
        RawPost("u2", "p4", "e a"),
        RawPost("u2", "p5", "!!!"),
        RawPost("u3", "p6", "репост", is_repost=True),
        RawPost("u3", "p7", "qqq zzz"),  # tokens exist but none in tiny_table
    ]


class TestIterCleanPosts:
    def test_filters_and_counts(self):
        stats = FilterStats()
        clean = list(iter_clean_posts(_posts(), stats))
        assert [tp.post_id for tp in clean] == ["p1", "p3", "p4", "p7"]
        assert (stats.kept, stats.url, stats.empty, stats.repost) == (4, 1, 1, 1)
        assert stats.removed == 3


class TestBuildEmbeddingTraining:
    def test_rows_dropped_and_counted(self, tiny_table):
        clean = list(iter_clean_posts(_posts()))
        labels = {"u1": 510.0, "u2": 490.0}  # u3 unlabeled
        ts, stats = build_embedding_training(clean, labels, tiny_table)
        assert ts.n_posts == 3  # p1, p3, p4
        assert stats.unlabeled == 1
        assert stats.no_vector == 0
        assert stats.n_users == 2
        # y copies the author's score onto each row
        assert ts.y.tolist() == [510.0, 510.0, 490.0]

    def test_posts_without_vectors_dropped(self, tiny_table):
        clean = list(iter_clean_posts(_posts()))
        labels = {"u1": 510.0, "u2": 490.0, "u3": 500.0}
        ts, stats = build_embedding_training(clean, labels, tiny_table)
        assert stats.no_vector == 1  # p7 has no in-vocabulary token
        assert ts.n_posts == 3

    @pytest.mark.parametrize("chunk_rows", [1, 2, None])
    def test_rows_bit_identical_to_matched_post_vectors(self, tiny_table, monkeypatch, chunk_rows):
        """X is, bit for bit, the rows of the posts with a match taken from
        one segment mean over every post's gathered rows (no-vector posts
        give NaN rows there), with no-vector posts first, in the middle and
        last, at chunks of one and two gathered rows and at the default."""
        rng = np.random.default_rng(8)
        words = tiny_table.words + ["oov"]
        clean = [TokenizedPost("u0", "q0", ["oov"])]
        for i in range(60):
            tokens = [words[j] for j in rng.integers(0, len(words), int(rng.integers(1, 7)))]
            clean.append(TokenizedPost(f"u{i % 4}", f"p{i}", tokens))
        clean.insert(30, TokenizedPost("u1", "q1", ["oov", "oov"]))
        clean.append(TokenizedPost("u2", "q2", ["oov"]))
        flat, n_matched, _ = flat_token_ids(tiny_table, [tp.tokens for tp in clean])
        means = np.empty((len(clean), tiny_table.dim))
        embeddings.segment_mean(tiny_table.vectors[flat].astype(np.float64), n_matched, means)
        assert not n_matched[[0, 30, -1]].any()
        if chunk_rows is not None:
            monkeypatch.setattr(embeddings, "_CHUNK_BYTES", chunk_rows * 12 * tiny_table.dim)
        labels = {f"u{k}": 500.0 + k for k in range(4)}
        ts, stats = build_embedding_training(clean, labels, tiny_table)
        assert stats.no_vector == (n_matched == 0).sum() >= 3
        assert np.array_equal(ts.X, means[n_matched > 0])
        assert ts.groups.tolist() == [tp.user_id for tp, m in zip(clean, n_matched) if m]

    def test_everything_unusable_rejected(self, tiny_table):
        clean = list(iter_clean_posts([RawPost("u", "p", "qqq")]))
        with pytest.raises(ValueError, match="usable"):
            build_embedding_training(clean, {"u": 1.0}, tiny_table)


# Pieces of post text that the filter and the tokenizer treat specially:
# dotted capital I, a final sigma, apostrophes and hyphens inside and around
# words, URLs, "www." chunks, other scripts, digits and an underscore.
_FRAGMENTS = st.sampled_from([
    "\u0130stanbul", "\u0130", "\u039f\u0394\u039f\u03a3", "\u03a3", "don't", "'tis", "o'", "re-read", "-x-",
    "--", "'", "http://x.ru/a", "HTTPS://T.CO", "www.site.ru", "xwww.y", "WWW.Site", " ", "\n", "",
    "\u0451\u0436", "\u65e5\u672c", "\u0661\u0662", "_", "Stra\u00dfe", "\u01c5", "!", "\U0001F600",
])
_TEXTS = st.lists(st.one_of(st.text(max_size=8), _FRAGMENTS), max_size=8).map("".join)
_POSTS = st.lists(st.tuples(st.text(max_size=3), _TEXTS, st.booleans()), max_size=25)


def _corpus_posts(corpus):
    """(user id, tokens) of each post of a corpus."""
    return list(zip([corpus.users[c] for c in corpus.codes.tolist()], token_lists(corpus)))


class TestCorpus:
    @settings(max_examples=80, deadline=None)
    @given(posts=_POSTS)
    def test_equals_iter_clean_posts(self, posts):
        """Post by post, the corpus of a posts file holds the user ids and
        tokens that iter_clean_posts and tokenize give, and the same filter
        counts; the entry written on the first load is read on the second,
        and gives the same corpus."""
        raw = [RawPost(u, f"p{i}", text, repost) for i, (u, text, repost) in enumerate(posts)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "posts.jsonl"
            dataio.write_posts_jsonl(path, raw)
            stats = FilterStats()
            clean = list(iter_clean_posts(dataio.iter_posts_jsonl(path), stats))
            shutil.rmtree(cache.cache_root(), ignore_errors=True)
            with mock.patch.object(dataio, "iter_posts_jsonl", wraps=dataio.iter_posts_jsonl) as reads:
                cold, _ = pipeline.load_corpus(path)
                warm, _ = pipeline.load_corpus(path)
            assert reads.call_count == 1
        expected = [(tp.user_id, tp.tokens) for tp in clean]
        assert expected == [(p.user_id, tokenize(p.text)) for p in raw if not should_filter(p)[0]]
        for corpus in (cold, warm):
            assert _corpus_posts(corpus) == expected
            assert corpus.stats == stats
            assert len(corpus) == stats.kept
            assert wordrank.training_token_counts(corpus) == Counter(t for tp in clean for t in tp.tokens)
        assert (warm.users, warm.tokens) == (cold.users, cold.tokens)
        for name in ("codes", "ids", "offsets"):
            a, b = getattr(cold, name), getattr(warm, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_lone_surrogate_user_id_round_trips(self, tmp_path):
        """A JSON posts file can name a user with a lone surrogate, which
        UTF-8 cannot hold; the entry stores it and gives it back."""
        path = tmp_path / "posts.jsonl"
        path.write_text(json.dumps({"user_id": "u\ud800", "post_id": "p", "text": "a b"}) + "\n",
                        encoding="utf-8")
        cold, digest = pipeline.load_corpus(path)
        assert (cache.cache_root() / f"{digest}.posts.json").exists()
        warm, _ = pipeline.load_corpus(path)
        assert _corpus_posts(warm) == _corpus_posts(cold) == [("u\ud800", ["a", "b"])]

    def test_digest_tells_string_lists_apart(self):
        """Corpora whose users and tokens join to the same text, split or
        divided between the two lists differently, have different digests."""
        splits = [(["ab"], []), (["a", "b"], []), ([], ["ab"]), (["a"], ["b"]), (["ab", ""], []),
                  (["", "ab"], []), (["a"], ["b", ""])]
        empty = np.zeros(0, dtype=np.int32)
        digests = {pipeline.Corpus(tokens, empty, np.zeros(1, dtype=np.int64), users, empty,
                                   FilterStats()).digest() for users, tokens in splits}
        assert len(digests) == len(splits)

    def test_token_lists_are_interned(self):
        """TokenizedPosts given to the model routes become a corpus on entry:
        first-appearance ids, one code per post, every post kept."""
        clean = [TokenizedPost("u2", "p1", ["b", "a", "b"]), TokenizedPost("u1", "p2", []),
                 TokenizedPost("u2", "p3", ["c", "a"])]
        corpus = pipeline.Corpus.from_posts(clean)
        assert corpus.tokens == ["b", "a", "c"] and corpus.users == ["u2", "u1"]
        assert corpus.ids.tolist() == [0, 1, 0, 2, 1] and corpus.offsets.tolist() == [0, 3, 3, 5]
        assert corpus.codes.tolist() == [0, 1, 0] and corpus.stats == FilterStats(kept=3)
        assert corpus.ids.dtype == corpus.codes.dtype == np.int32 and corpus.offsets.dtype == np.int64


class TestCorpusMemory:
    def test_at_most_16_bytes_a_token(self, tmp_path):
        """The model path's memory contract: reading a posts file into its
        corpus and storing it, on an empty cache, peaks at most 16 bytes a
        token above the same read of a tenth of the posts, with the same
        distinct words. The corpus holds an int32 id a token, an int32 code
        and an int64 offset a post; a list of TokenizedPosts took about 86
        bytes a token."""
        words = [f"w{i}" for i in range(500)]

        def peak(n):
            rng = np.random.default_rng(n)
            path = tmp_path / f"posts{n}.jsonl"
            dataio.write_posts_jsonl(path, (
                RawPost(f"u{i % 50}", f"p{i}", " ".join(words[j] for j in rng.integers(0, 500, 12)))
                for i in range(n)
            ))
            tracemalloc.start()
            try:
                corpus, digest = pipeline.load_corpus(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (cache.cache_root() / f"{digest}.posts.json").exists()
            return peak, corpus.ids.size

        (small, small_tokens), (large, large_tokens) = peak(2_000), peak(20_000)
        assert large - small <= 16 * (large_tokens - small_tokens)


class TestUserMeans:
    @settings(max_examples=150, deadline=None)
    @given(
        ids=st.lists(st.text(alphabet="abé", max_size=2), max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_np_unique_grouping(self, ids, seed):
        """Interleaved ids, some users with no counted post: the same
        users, means (bit for bit), counts and fallback users as grouping
        by ``np.unique(..., return_inverse=True)`` on an object array."""
        rng = np.random.default_rng(seed)
        scores = 500.0 + 40.0 * rng.standard_normal(len(ids))
        counted = rng.random(len(ids)) < 0.6
        meta = TrainingMeta(n_posts=1, n_users=1, target_mean=503.25, target_sd=1.0)
        model = LinearModel(np.zeros(1), 0.0, 0.0, 1, meta)
        result = pipeline._user_means(model, ids, scores, counted)
        users, index = np.unique(np.asarray(ids, dtype=object), return_inverse=True)
        sums = np.bincount(index[counted], weights=scores[counted], minlength=users.size)
        counts = np.bincount(index[counted], minlength=users.size)
        fallback = counts == 0
        means = np.where(fallback, meta.target_mean, sums / np.maximum(counts, 1))
        assert [p.user_id for p in result.predictions] == users.tolist()
        assert [p.n_posts_used for p in result.predictions] == counts.tolist()
        got = np.array([p.predicted for p in result.predictions], dtype=np.float64)
        assert got.tobytes() == means.tobytes()
        assert result.fallback_users == users[fallback].tolist()


class TestPredictUsersFromPosts:
    def test_user_mean_and_fallback(self, tiny_table):
        clean = list(iter_clean_posts(_posts()))
        labels = {"u1": 510.0, "u2": 490.0}
        ts, _ = build_embedding_training(clean, labels, tiny_table)
        model = fit(ts, lam=0.1)
        result = predict_users_from_posts(model, tiny_table, clean)
        by_user = {p.user_id: p for p in result.predictions}
        assert set(by_user) == {"u1", "u2", "u3"}
        assert result.fallback_users == ["u3"]
        assert by_user["u3"].n_posts_used == 0
        assert by_user["u3"].predicted == model.training_meta.target_mean
        # u1's prediction averages p1 and p3 post scores
        s1 = predict_post(model, post_vector(tiny_table, ["a", "b"]))
        s3 = predict_post(model, post_vector(tiny_table, ["c", "c", "d"]))
        assert by_user["u1"].predicted == pytest.approx((s1 + s3) / 2, abs=1e-9)
        assert by_user["u1"].n_posts_used == 2

    def test_interleaved_users_sum_matched_scores_in_post_order(self, tiny_table):
        """Users' posts interleave; each prediction is, bit for bit, the
        sequential sum of the user's matched post scores in post order over
        their count, and a user with only unmatched posts falls back."""
        rng = np.random.default_rng(21)
        meta = TrainingMeta(n_posts=1, n_users=1, target_mean=503.25, target_sd=1.0)
        model = LinearModel(weights=rng.standard_normal(3) * 40, bias=497.0, lam=0.0, d=3,
                            training_meta=meta)
        words = tiny_table.words + ["oov"]
        clean = []
        for i in range(400):
            user = f"u{int(rng.integers(0, 7))}"
            tokens = [words[j] for j in rng.integers(0, len(words), int(rng.integers(0, 6)))]
            clean.append(TokenizedPost(user, f"p{i}", tokens))
        clean.insert(150, TokenizedPost("u_oov", "q1", ["oov"]))
        clean.insert(300, TokenizedPost("u_oov", "q2", []))
        scores, n_matched = score_tokenized_posts(model, tiny_table, [tp.tokens for tp in clean])
        sums, counts = {}, {}
        for tp, score, matched in zip(clean, scores.tolist(), n_matched.tolist()):
            counts.setdefault(tp.user_id, 0)
            if matched:
                sums[tp.user_id] = sums.get(tp.user_id, 0.0) + score
                counts[tp.user_id] += 1

        result = predict_users_from_posts(model, tiny_table, clean)
        assert [p.user_id for p in result.predictions] == sorted(counts)
        assert result.fallback_users == ["u_oov"]
        for p in result.predictions:
            assert p.n_posts_used == counts[p.user_id]
            if p.user_id == "u_oov":
                assert p.predicted == 503.25
            else:
                assert counts[p.user_id] > 8  # long enough for pairwise sums to differ
                assert p.predicted == sums[p.user_id] / counts[p.user_id]


class TestTableMemory:
    @pytest.mark.parametrize("route", ["iter_ranked", "write_ranking_csv", "predict_users_from_posts"])
    def test_peak_beyond_table_does_not_grow_with_dim(self, tmp_path, route):
        """Word scores come from ~1 MB chunks of float64 rows, not a float64
        copy of the table: the same 4,000 words at d=50 and d=400 (a 12.8 MB
        copy) peak within two chunks of each other."""
        rng = np.random.default_rng(9)
        words = [f"w{i}" for i in range(4000)]
        posts = [
            TokenizedPost(f"u{i % 30}", f"p{i}", [words[j] for j in rng.integers(0, 4000, 8)])
            for i in range(1500)
        ]
        counts = wordrank.training_token_counts(tp.tokens for tp in posts)
        meta = TrainingMeta(n_posts=1, n_users=1, target_mean=500.0, target_sd=1.0)

        def peak(d):
            table = EmbeddingTable(words, rng.standard_normal((4000, d)).astype(np.float32))
            model = LinearModel(weights=rng.standard_normal(d), bias=500.0, lam=0.0, d=d,
                                training_meta=meta)
            run = {
                "iter_ranked": lambda: list(wordrank.iter_ranked(model, table, min_count=1, counts=counts)),
                "write_ranking_csv": lambda: dataio.write_ranking_csv(
                    tmp_path / "ranking.csv", wordrank.iter_ranked(model, table)
                ),
                "predict_users_from_posts": lambda: predict_users_from_posts(model, table, posts),
            }[route]
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(400) - peak(50)) <= 2 * embeddings._CHUNK_BYTES


class TestTfidfRoute:
    def test_training_and_prediction_consistent(self):
        posts = [
            RawPost("u1", "p1", "a b a"),
            RawPost("u1", "p2", "b c"),
            RawPost("u2", "p3", "c d d"),
            RawPost("u2", "p4", "a d"),
            RawPost("u3", "p5", "b d"),
        ]
        clean = list(iter_clean_posts(posts))
        labels = {"u1": 520.0, "u2": 480.0, "u3": 505.0}
        vocab = build_vocab((tp.tokens for tp in clean), k=6)
        ts, stats = build_tfidf_training(clean, labels, vocab)
        assert ts.n_posts == 5
        assert stats.n_users == 3
        model = fit(ts, lam=0.5)
        result = predict_users_tfidf(model, vocab, clean)
        assert {p.user_id for p in result.predictions} == {"u1", "u2", "u3"}
        # norms are 1, so predictions stay in a sane range around the bias
        for p in result.predictions:
            assert np.isfinite(p.predicted)

    def test_prediction_is_mean_of_post_scores(self):
        """Each user's prediction is the mean of tfidf_vector(...) @ w + b over
        every one of their posts (interleaved), a post with no vocabulary
        term included: its zero vector scores the bias."""
        posts = [
            RawPost("u2", "p1", "a b a"),
            RawPost("u1", "p2", "b c"),
            RawPost("u2", "p3", "qqq zzz"),
            RawPost("u3", "p4", "c d d"),
            RawPost("u1", "p5", "a d"),
            RawPost("u2", "p6", "b d c"),
            RawPost("u3", "p7", "zzz"),
        ]
        clean = list(iter_clean_posts(posts))
        vocab = build_vocab((tp.tokens for tp in clean if "zzz" not in tp.tokens), k=6)
        rng = np.random.default_rng(5)
        meta = TrainingMeta(n_posts=1, n_users=1, target_mean=0.0, target_sd=1.0)
        model = LinearModel(weights=rng.standard_normal(len(vocab)) * 50, bias=500.0, lam=0.0,
                            d=len(vocab), training_meta=meta)
        by_user = {}
        for tp in clean:
            by_user.setdefault(tp.user_id, []).append(tfidf_vector(vocab, tp.tokens) @ model.weights + model.bias)
        assert 500.0 in by_user["u3"]  # p7's zero vector scores the bias

        result = predict_users_tfidf(model, vocab, clean)
        assert [p.user_id for p in result.predictions] == ["u1", "u2", "u3"]
        assert result.fallback_users == []
        for p in result.predictions:
            assert p.n_posts_used == len(by_user[p.user_id])
            assert p.predicted == pytest.approx(np.mean(by_user[p.user_id]), abs=1e-12, rel=0)


class TestExtractFeatures:
    def test_pipeline_keeps_the_name(self):
        assert pipeline.extract_features is extract_features

    def test_grouped_and_sorted(self):
        features = extract_features(_posts())
        assert [f.user_id for f in features] == ["u1", "u2", "u3"]
        by_user = {f.user_id: f for f in features}
        assert by_user["u1"].n_posts == 2
        assert by_user["u2"].n_posts == 1
        # u1 pooled tokens: a b c c d -> vocab 4
        assert by_user["u1"].vocab_size == 4

    def test_stream_order_irrelevant(self):
        base = extract_features(_posts())
        reordered = extract_features(list(reversed(_posts())))
        assert sorted(base, key=lambda f: f.user_id) == sorted(
            reordered, key=lambda f: f.user_id
        )
