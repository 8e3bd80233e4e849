import csv
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postscore import dataio, tfidf
from postscore.embeddings import TokenIds
from postscore.errors import DataFormatError
from postscore.tfidf import TfidfVocabulary, build_vocab, load_stopwords, tfidf_matrix, tfidf_scores

from oracles import tfidf_vector, tfidf_vocab

# Few distinct tokens, so that counts tie, tokens repeat within a post and
# stopwords bridge bigrams; "zz" and "ё" sort after the rest.
_TOKENS = st.sampled_from(["a", "b", "c", "ab", "the", "zz", "ё", "b-c"])


class TestBuildVocab:
    def test_counting_and_tie_rule(self):
        # counts: a=3, b=1, c=1, "a b"=1, "a c"=1; ties sort lexicographically,
        # so the space-joined bigram "a b" beats the unigram "b".
        vocab = build_vocab([["a", "b"], ["a", "c"], ["a"]], k=2)
        assert vocab.terms == ["a", "a b"]
        vocab4 = build_vocab([["a", "b"], ["a", "c"], ["a"]], k=4)
        assert vocab4.terms == ["a", "a b", "a c", "b"]

    def test_stopword_removes_unigram_and_bigrams(self):
        vocab = build_vocab([["a", "b"], ["a", "c"]], stopwords={"a"}, k=10)
        assert "a" not in vocab.terms
        assert all("a" not in t.split(" ") for t in vocab.terms)
        assert set(vocab.terms) == {"b", "c"}

    def test_bigrams_bridge_removed_stopwords(self):
        vocab = build_vocab([["x", "the", "y"]], stopwords={"the"}, k=10)
        assert "x y" in vocab.terms

    def test_smoothed_idf_when_term_everywhere(self):
        # df = n_docs = 3: idf = ln(4/4) + 1 = 1
        vocab = build_vocab([["a", "b"], ["a", "c"], ["a"]], k=4)
        assert vocab.idf["a"] == pytest.approx(1.0, abs=1e-15)
        # df = 1 of 3: idf = ln(4/2) + 1
        assert vocab.idf["b"] == pytest.approx(math.log(2.0) + 1.0, abs=1e-15)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([], k=5)

    def test_at_most_k_terms_and_df_positive(self):
        corpus = [[f"w{i}", f"w{i+1}"] for i in range(30)]
        vocab = build_vocab(corpus, k=10)
        assert len(vocab.terms) == 10
        assert all(vocab.df[t] >= 1 for t in vocab.terms)
        assert all(vocab.idf[t] > 0 for t in vocab.terms)

    def test_deterministic(self):
        corpus = [["a", "b", "c"], ["b", "c"], ["c", "a"]]
        v1 = build_vocab(corpus, k=5)
        v2 = build_vocab(corpus, k=5)
        assert v1.terms == v2.terms
        assert v1.idf == v2.idf


class TestTfidfVector:
    def test_single_term_normalizes_to_one(self):
        vocab = TfidfVocabulary(terms=["a"], df={"a": 1}, idf={"a": 1.0}, n_docs=1)
        vec = tfidf_vector(vocab, ["a", "a"])
        assert vec == pytest.approx([1.0])

    def test_oov_post_is_zero_vector(self):
        vocab = TfidfVocabulary(terms=["a"], df={"a": 1}, idf={"a": 1.0}, n_docs=1)
        assert tfidf_vector(vocab, ["zzz"]).tolist() == [0.0]

    def test_hand_computed_weights(self):
        # raw (1*1, 1*2) -> normalized (1/sqrt(5), 2/sqrt(5))
        vocab = TfidfVocabulary(
            terms=["a", "b"], df={"a": 1, "b": 1}, idf={"a": 1.0, "b": 2.0}, n_docs=2
        )
        vec = tfidf_vector(vocab, ["a", "b"])
        assert vec == pytest.approx([1 / math.sqrt(5), 2 / math.sqrt(5)], abs=1e-12)

    def test_nonzero_vectors_unit_norm(self):
        corpus = [["a", "b", "c"], ["b", "c", "c"], ["a"], ["d", "e"]]
        vocab = build_vocab(corpus, k=6)
        X = tfidf_matrix(vocab, corpus)
        norms = np.linalg.norm(X, axis=1)
        for n in norms:
            assert n == pytest.approx(1.0, abs=1e-9) or n == 0.0

    def test_oov_post_does_not_disturb_others(self):
        corpus = [["a", "b"], ["b", "c"]]
        vocab = build_vocab(corpus, k=4)
        before = tfidf_matrix(vocab, corpus)
        after = tfidf_matrix(vocab, corpus + [["qqq", "zzz"]])
        assert np.array_equal(before, after[:2])
        assert not after[2].any()

    def test_bigram_counted_in_transform(self):
        vocab = build_vocab([["x", "y"], ["x", "y"]], k=3)
        assert "x y" in vocab.terms
        vec = tfidf_vector(vocab, ["x", "y"])
        assert vec[vocab.terms.index("x y")] > 0

    def test_stopwords_consistent_between_build_and_transform(self):
        stop = frozenset({"the"})
        corpus = [["x", "the", "y"], ["x", "y"]]
        vocab = build_vocab(corpus, stopwords=stop, k=5)
        with_stop = tfidf_vector(vocab, ["x", "the", "y"], stopwords=stop)
        without = tfidf_vector(vocab, ["x", "y"], stopwords=stop)
        assert with_stop == pytest.approx(without, abs=1e-15)


class TestVocabularyPersistence:
    def test_csv_round_trip(self, tmp_path):
        vocab = build_vocab([["a", "b"], ["b", "c"], ["a"]], k=5)
        path = tmp_path / "vocab.csv"
        dataio.write_tfidf_vocab_csv(path, vocab)
        with open(path, encoding="utf-8", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["term", "df", "idf"]
        assert [row[0] for row in rows] == vocab.terms
        assert {row[0]: int(row[1]) for row in rows} == vocab.df
        assert {row[0]: row[2] for row in rows} == {t: repr(vocab.idf[t]) for t in vocab.terms}
        data = path.read_bytes()
        assert b"\r" not in data and data.count(b"\n") == len(vocab) + 1


class TestStopwords:
    def test_one_word_per_line(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("и\nв\n\nне\n", encoding="utf-8")
        assert load_stopwords(path) == {"и", "в", "не"}


class TestRepeatedTerm:
    def test_constructor_rejects_a_repeated_term(self):
        with pytest.raises(ValueError, match="`terms` lists 'a' twice"):
            TfidfVocabulary(terms=["a", "b", "a"], df={"a": 1, "b": 1}, idf={"a": 1.0, "b": 1.0}, n_docs=1)

    def test_model_block_with_a_repeated_term_is_data_error(self, tmp_path):
        """Each term owns one column: a block that lists a term twice would
        leave one of its weights unused, so it is refused, naming the file
        and the term."""
        block = build_vocab([["a", "b"], ["b", "c"], ["a"]], k=3).to_dict()
        block["terms"][1] = block["terms"][0]
        with pytest.raises(DataFormatError) as err:
            TfidfVocabulary.from_dict(block, path=tmp_path / "model.json")
        assert str(err.value) == f"{tmp_path / 'model.json'}: bad `tfidf` object: `terms` lists 'a' twice"


class TestIdRoute:
    """The route on token ids against the list-based oracles, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        posts=st.lists(st.lists(_TOKENS, max_size=7), min_size=1, max_size=12),
        scored=st.lists(st.lists(_TOKENS, max_size=7), max_size=8),
        stopwords=st.frozensets(_TOKENS, max_size=3),
        k=st.integers(1, 40),
        form=st.sampled_from(["ids", "lists", "generator"]),
        chunk_rows=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(posts=[["x", "the", "y"], ["the", "the"], [], ["x", "x", "y"]], scored=[["y", "x"], ["zz"]],
             stopwords=frozenset({"the"}), k=2, form="generator", chunk_rows=1, seed=0)
    def test_matches_the_oracles(self, posts, scored, stopwords, k, form, chunk_rows, seed):
        """Bridged bigrams, empty and all-stopword posts, repeated tokens,
        ties at the k-th place, k beyond the candidates, a generator for
        input, and scored posts that miss vocabulary terms or hold tokens
        the training posts lack; scores in blocks of 1-4 rows."""
        source = {"ids": lambda: TokenIds.from_lists(posts), "lists": lambda: posts,
                  "generator": lambda: (list(p) for p in posts)}[form]
        vocab = build_vocab(source(), stopwords, k=k)
        expected = tfidf_vocab(posts, stopwords, k=k)
        assert vocab.terms == expected.terms and vocab.n_docs == expected.n_docs
        assert list(vocab.df.items()) == list(expected.df.items())
        assert list(vocab.idf.items()) == list(expected.idf.items())

        for corpus in (posts, scored):
            X = tfidf_matrix(vocab, TokenIds.from_lists(corpus) if form == "ids" else corpus, stopwords)
            rows = [tfidf_vector(vocab, p, stopwords) for p in corpus]
            expected_X = np.array(rows, dtype=np.float64).reshape(len(corpus), len(vocab))
            assert np.array_equal(X.view(np.int64), expected_X.view(np.int64))

        rng = np.random.default_rng(seed)
        w, b = rng.standard_normal(len(vocab)) * 50, float(rng.normal(500.0, 10.0))
        with mock.patch.object(tfidf, "_CHUNK_BYTES", 8 * len(vocab) * chunk_rows):
            scores = tfidf_scores(vocab, scored, w, b, stopwords)
        expected_scores = [tfidf_vector(vocab, p, stopwords) @ w + b for p in scored]
        assert np.array_equal(scores.view(np.int64), np.array(expected_scores, dtype=np.float64).view(np.int64))

    def test_token_with_a_space_is_rejected(self):
        """"a b" as one token would spell the bigram of "a" and "b"."""
        with pytest.raises(ValueError, match="holds a space"):
            build_vocab([["a b"], ["a", "b"]], k=5)


class TestMemory:
    @staticmethod
    def _corpus(n, seed=3):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(3000)]
        return TokenIds.from_lists([words[j] for j in rng.integers(0, 3000, 8)] for _ in range(n))

    @staticmethod
    def _peak(run):
        tracemalloc.start()
        try:
            result = run()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_matrix_holds_no_second_n_by_k_array(self):
        """4,000 posts at k=1000: beyond its 32 MB output, tfidf_matrix
        holds arrays the size of the tokens (a few MB), not a count or
        weight array of n x k."""
        corpus = self._corpus(4000)
        vocab = build_vocab(corpus, k=1000)
        assert len(vocab) == 1000
        peak, X = self._peak(lambda: tfidf_matrix(vocab, corpus))
        assert peak - X.nbytes <= 128 * corpus.ids.size + (1 << 20)

    def test_scores_peak_does_not_grow_with_the_posts(self):
        """Doubling the posts at k=1000 would add 16 MB to a dense X, and
        about 1 MB to arrays over all the posts' tokens; the scores' peak
        grows by their own 8 bytes a post and little more."""
        vocab = build_vocab(self._corpus(2000), k=1000)
        w = np.ones(len(vocab))
        small, large = self._corpus(2000, seed=4), self._corpus(4000, seed=5)
        grows = self._peak(lambda: tfidf_scores(vocab, large, w, 0.0))[0] - self._peak(
            lambda: tfidf_scores(vocab, small, w, 0.0))[0]
        assert grows <= 16 * (len(large) - len(small))
