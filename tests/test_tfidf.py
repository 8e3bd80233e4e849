import csv
import math

import numpy as np
import pytest

from postscore import dataio
from postscore.tfidf import TfidfVocabulary, build_vocab, load_stopwords, tfidf_matrix, tfidf_vector


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
        assert "x y" in vocab.index
        vec = tfidf_vector(vocab, ["x", "y"])
        assert vec[vocab.index["x y"]] > 0

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
