import numpy as np
import pytest

from postscore import embeddings
from postscore.embeddings import EmbeddingTable
from postscore.model import LinearModel, TrainingMeta, score_tokenized_posts, word_scores_array
from postscore.wordrank import WordScore, iter_ranked, project_2d, training_token_counts

from oracles import post_vector, predict_post, score_word


def _model(w, b=0.0, target_mean=500.0):
    w = np.asarray(w, dtype=np.float64)
    meta = TrainingMeta(n_posts=1, n_users=1, target_mean=target_mean, target_sd=1.0)
    return LinearModel(weights=w, bias=b, lam=0.0, d=w.size, training_meta=meta)


def _table_with_scores(scores):
    """1-d table whose word scores under w=(1,), b=0 are exactly `scores`."""
    words = [f"w{i}" for i in range(len(scores))]
    vectors = np.asarray(scores, dtype=np.float32).reshape(-1, 1)
    return EmbeddingTable(words, vectors)


class TestScoreWord:
    """Word scores on the route the CLI runs (``word_scores_array``)."""

    def test_single_word_post_equals_word_score(self, tiny_table):
        rng = np.random.default_rng(0)
        model = _model(rng.standard_normal(3), b=250.0)
        scores = word_scores_array(model, tiny_table)
        for i, word in enumerate(tiny_table.words):
            direct = predict_post(model, post_vector(tiny_table, [word]))
            assert scores[i] == pytest.approx(direct, abs=1e-9)

    def test_oov_is_absent(self, tiny_table):
        model = _model([1.0, 0.0, 0.0])
        scores, n_matched = score_tokenized_posts(model, tiny_table, [["zzz"]])
        assert n_matched.tolist() == [0]
        assert scores.tolist() == [model.training_meta.target_mean]

    def test_stored_capitalized_word_is_scored(self):
        table = EmbeddingTable(["Apple", "pear"], np.array([[2.0], [3.0]], dtype=np.float32))
        assert word_scores_array(_model([10.0], b=1.0), table).tolist() == [21.0, 31.0]

    def test_zero_weights_score_bias(self, tiny_table):
        model = _model([0.0, 0.0, 0.0], b=77.0)
        assert word_scores_array(model, tiny_table).tolist() == [77.0] * len(tiny_table)

    def test_dimension_mismatch(self, tiny_table):
        with pytest.raises(ValueError, match="model dimension 1 does not match table dim 3"):
            word_scores_array(_model([1.0]), tiny_table)

    def test_post_score_is_mean_of_word_scores(self, tiny_table):
        """The central linearity identity, on random posts."""
        rng = np.random.default_rng(1)
        model = _model(rng.standard_normal(3), b=480.0)
        scores = word_scores_array(model, tiny_table)
        words = tiny_table.words
        for _ in range(50):
            tokens = [words[i] for i in rng.integers(0, len(words), int(rng.integers(1, 9)))]
            mean_words = float(np.mean([scores[tiny_table.vocab[t]] for t in tokens]))
            direct = predict_post(model, post_vector(tiny_table, tokens))
            assert direct == pytest.approx(mean_words, abs=1e-9)


class TestWordScoresArray:
    def test_bit_identical_for_any_chunking(self, monkeypatch):
        """Chunks of 1 row, 7 rows and the whole table give the same bits,
        in word_scores_array and in the scores of one-word posts, and each
        is within 1e-9 of the oracle's score_word."""
        rng = np.random.default_rng(22)
        d = 13
        words = [f"w{i}" for i in range(300)]
        table = EmbeddingTable(words, (rng.standard_normal((300, d)) * 50).astype(np.float32))
        model = _model(rng.standard_normal(d), b=480.0)
        monkeypatch.setattr(embeddings, "_CHUNK_BYTES", 10**12)
        whole = word_scores_array(model, table)
        for rows in (1, 7):
            monkeypatch.setattr(embeddings, "_CHUNK_BYTES", rows * 8 * d)
            assert np.array_equal(word_scores_array(model, table), whole)
            scores, _ = score_tokenized_posts(model, table, [[w] for w in words])
            assert np.array_equal(scores, whole)
        for i, word in enumerate(words):
            assert abs(score_word(model, table, word) - whole[i]) <= 1e-9


class TestRankAll:
    def test_percentiles_for_three_words(self):
        table = _table_with_scores([500.0, 510.0, 490.0])
        ranked = list(iter_ranked(_model([1.0]), table))
        assert [w.score for w in ranked] == [510.0, 500.0, 490.0]
        assert [w.percentile for w in ranked] == [100.0, 50.0, 0.0]

    def test_descending_with_lexicographic_ties(self):
        table = EmbeddingTable(["bb", "aa", "cc"], np.ones((3, 1), dtype=np.float32))
        ranked = list(iter_ranked(_model([1.0]), table))
        assert [w.word for w in ranked] == ["aa", "bb", "cc"]

    def test_min_count_filters_before_percentiles(self):
        table = _table_with_scores([510.0, 500.0, 490.0, 480.0])
        counts = {"w0": 10, "w1": 1, "w2": 10, "w3": 10}
        ranked = list(iter_ranked(_model([1.0]), table, min_count=5, counts=counts))
        assert [w.word for w in ranked] == ["w0", "w2", "w3"]
        assert [w.percentile for w in ranked] == [100.0, 50.0, 0.0]

    def test_min_count_without_source_rejected(self):
        table = _table_with_scores([1.0])
        with pytest.raises(ValueError, match="frequency source"):
            list(iter_ranked(_model([1.0]), table, min_count=5))

    def test_words_absent_from_counts_still_scored_when_unfiltered(self):
        table = _table_with_scores([510.0, 490.0])
        ranked = list(iter_ranked(_model([1.0]), table, counts={"w0": 3}))
        assert {w.word for w in ranked} == {"w0", "w1"}
        freq = {w.word: w.freq for w in ranked}
        assert freq["w0"] == 3 and freq["w1"] is None

    def test_percentile_monotone_in_score(self):
        rng = np.random.default_rng(2)
        table = _table_with_scores(rng.normal(500, 50, size=40).tolist())
        ranked = list(iter_ranked(_model([1.0]), table))
        for hi, lo in zip(ranked, ranked[1:]):
            assert hi.score >= lo.score
            assert hi.percentile > lo.percentile

    def test_reranking_idempotent(self):
        rng = np.random.default_rng(3)
        table = _table_with_scores(rng.normal(0, 1, size=17).tolist())
        first = list(iter_ranked(_model([1.0]), table))
        again = list(iter_ranked(_model([1.0]), table))
        assert first == again

    def test_head_tail_selection(self):
        table = _table_with_scores([5.0, 4.0, 3.0, 2.0, 1.0])
        subset = list(iter_ranked(_model([1.0]), table, head=2, tail=2))
        assert [w.score for w in subset] == [5.0, 4.0, 2.0, 1.0]
        # percentiles still computed over the full five words
        assert subset[0].percentile == 100.0
        assert subset[-1].percentile == 0.0


class TestTrainingTokenCounts:
    def test_counts_occurrences(self):
        counts = training_token_counts([["a", "b", "a"], ["b"]])
        assert counts == {"a": 2, "b": 2}


class TestProject2d:
    def test_near_collinear_second_component_tiny(self):
        words = ["a", "b", "c"]
        vectors = np.array([[0.0, 0.0], [1.0, 1.0 + 1e-7], [2.0, 2.0 - 1e-7]], dtype=np.float32)
        table = EmbeddingTable(words, vectors)
        sel = [WordScore(w, float(i), None, 0.0) for i, w in enumerate(words)]
        rows = project_2d(sel, table)
        assert max(abs(r[2]) for r in rows) < 1e-4
        assert max(abs(r[1]) for r in rows) > 0.5

    def test_exact_rank_one_second_component_zero(self):
        # {(1,0), (-1,0), (0,0)}: x-coordinates {±1, 0} up to the sign rule
        words = ["a", "b", "c"]
        vectors = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]], dtype=np.float32)
        table = EmbeddingTable(words, vectors)
        sel = [WordScore(w, 0.0, None, 0.0) for w in words]
        rows = project_2d(sel, table)
        xs = [r[1] for r in rows]
        assert sorted(xs) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)
        assert all(r[2] == 0.0 for r in rows)

    def test_identical_vectors_rejected(self):
        table = EmbeddingTable(["a", "b", "c"], np.ones((3, 2), dtype=np.float32))
        sel = [WordScore(w, 0.0, None, 0.0) for w in ("a", "b", "c")]
        with pytest.raises(ValueError, match="identical"):
            project_2d(sel, table)

    def test_too_few_words_rejected(self, tiny_table):
        sel = [WordScore("a", 0.0, None, 0.0), WordScore("b", 0.0, None, 0.0)]
        with pytest.raises(ValueError, match="at least 3"):
            project_2d(sel, tiny_table)

    def test_cased_words_take_their_own_rows(self):
        words = ["Apple", "apple", "Pear", "fig"]
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [-1.0, 3.0]], dtype=np.float32)
        cased = EmbeddingTable(words, vectors)
        plain = EmbeddingTable(["w0", "w1", "w2", "w3"], vectors)
        sel = [WordScore(w, 0.0, None, 0.0) for w in words]
        rows = project_2d(sel, cased)
        ref = project_2d([WordScore(f"w{i}", 0.0, None, 0.0) for i in range(4)], plain)
        assert [r[0] for r in rows] == words
        assert [r[1:] for r in rows] == [r[1:] for r in ref]

    def test_oov_word_rejected(self, tiny_table):
        sel = [WordScore(w, 0.0, None, 0.0) for w in ("a", "b", "zzz")]
        with pytest.raises(ValueError, match="zzz"):
            project_2d(sel, tiny_table)

    def test_permutation_invariant_up_to_row_order(self, tiny_table):
        sel = [WordScore(w, 1.0, None, 0.0) for w in ("a", "b", "c", "d", "e")]
        base = {r[0]: (r[1], r[2]) for r in project_2d(sel, tiny_table)}
        rng = np.random.default_rng(4)
        for _ in range(5):
            perm = [sel[i] for i in rng.permutation(len(sel))]
            got = {r[0]: (r[1], r[2]) for r in project_2d(perm, tiny_table)}
            for w in base:
                assert got[w] == pytest.approx(base[w], abs=1e-9)

    def test_rank_two_reconstruction_error_matches_discarded_spectrum(self):
        """Projecting onto the 2-d coordinates reproduces the centered matrix
        up to exactly the discarded singular values' energy (independent SVD)."""
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((8, 5)).astype(np.float32)
        words = [f"w{i}" for i in range(8)]
        table = EmbeddingTable(words, vectors)
        sel = [WordScore(w, 0.0, None, 0.0) for w in words]
        rows = project_2d(sel, table)
        coords = np.array([[r[1], r[2]] for r in rows])
        M = vectors.astype(np.float64)
        M -= M.mean(axis=0)
        # best rank-2 approximation given the coordinate basis
        proj = coords @ np.linalg.pinv(coords) @ M
        err = float(((M - proj) ** 2).sum())
        s = np.linalg.svd(M, compute_uv=False)
        assert err == pytest.approx(float((s[2:] ** 2).sum()), rel=1e-9)
