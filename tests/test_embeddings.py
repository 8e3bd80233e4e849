import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from postscore import dataio, embeddings, vectext
from postscore.embeddings import EmbeddingTable, flat_token_ids, post_vectors_matrix
from postscore.errors import DataFormatError
from postscore.synth import SynthConfig, generate

from oracles import post_vector, read_vec


def _write(tmp_path, text, name="table.vec"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadVec:
    def test_minimal_file(self, tmp_path):
        table = EmbeddingTable.load_vec(_write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
        assert table.dim == 3
        assert len(table) == 2
        assert table.vectors.dtype == np.float32

    def test_short_row_names_line(self, tmp_path):
        path = _write(tmp_path, "2 3\na 1 0 0\nb 0 1\n")
        with pytest.raises(DataFormatError) as err:
            EmbeddingTable.load_vec(path)
        assert ":3" in str(err.value)

    def test_long_row_names_line(self, tmp_path):
        path = _write(tmp_path, "2 3\na 1 0 0 9\nb 0 1 0\n")
        with pytest.raises(DataFormatError) as err:
            EmbeddingTable.load_vec(path)
        assert ":2" in str(err.value)

    def test_duplicate_word_rejected(self, tmp_path):
        path = _write(tmp_path, "3 3\na 1 0 0\nb 0 1 0\na 0 0 1\n")
        with pytest.raises(DataFormatError, match="duplicate") as err:
            EmbeddingTable.load_vec(path)
        assert ":4" in str(err.value)

    def test_non_finite_value_rejected(self, tmp_path):
        path = _write(tmp_path, "2 3\na 1 inf 0\nb 0 1 0\n")
        with pytest.raises(DataFormatError) as err:
            EmbeddingTable.load_vec(path)
        assert ":2" in str(err.value)

    @pytest.mark.parametrize("bad", ["nan", "-inf"])
    def test_largest_finite_rows_load_and_non_finite_is_named(self, tmp_path, bad):
        """Rows are checked by a float64 sum, which FLT_MAX values cannot
        overflow and which a NaN or an infinity among them always reaches."""
        big = "3.4028235e+38"
        table = EmbeddingTable.load_vec(_write(tmp_path, f"2 3\na {big} {big} {big}\nb -{big} -{big} 0\n"))
        assert np.isfinite(table.vectors).all()
        path = _write(tmp_path, f"3 3\na {big} {big} {big}\nb 0 1 0\nc {big} {bad} -{big}\n")
        with pytest.raises(DataFormatError, match="non-finite") as err:
            EmbeddingTable.load_vec(path)
        assert ":4" in str(err.value)

    def test_unparseable_value_names_line(self, tmp_path):
        path = _write(tmp_path, "2 3\na 1 x 0\nb 0 1 0\n")
        with pytest.raises(DataFormatError) as err:
            EmbeddingTable.load_vec(path)
        assert ":2" in str(err.value)

    def test_count_mismatch(self, tmp_path):
        path = _write(tmp_path, "3 3\na 1 0 0\nb 0 1 0\n")
        with pytest.raises(DataFormatError, match="declares 3"):
            EmbeddingTable.load_vec(path)

    def test_bad_header(self, tmp_path):
        with pytest.raises(DataFormatError) as err:
            EmbeddingTable.load_vec(_write(tmp_path, "3\na 1 0 0\n"))
        assert ":1" in str(err.value)

    def test_word_named_nan_survives(self, tmp_path):
        table = EmbeddingTable.load_vec(_write(tmp_path, "2 2\nnan 1 0\nnull 0 1\n"))
        assert set(table.words) == {"nan", "null"}

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        words = [f"слово{i}" for i in range(50)]
        vectors = (rng.standard_normal((50, 7)) * 3).astype(np.float32)
        table = EmbeddingTable(words, vectors)
        out = tmp_path / "roundtrip.vec"
        table.save_vec(out)
        back = EmbeddingTable.load_vec(out)
        assert back.words == table.words
        assert np.array_equal(back.vectors, table.vectors)
        # and a second bounce changes nothing on disk
        out2 = tmp_path / "roundtrip2.vec"
        back.save_vec(out2)
        assert out.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "text",
        ["2 3\na 1 0 0 \nb 0 1 0 \n", "2 3\r\na 1 0 0\r\nb 0 1 0\r\n", "2 3\na 1 0 0\nb 0 1 0"],
        ids=["fasttext-trailing-space", "crlf", "no-final-newline"],
    )
    def test_common_layouts_load_by_the_c_parser_route(self, tmp_path, text):
        path = tmp_path / "layout.vec"
        path.write_bytes(text.encode())
        table = EmbeddingTable.load_vec(path)
        assert table.words == ["a", "b"]
        assert table.vectors.tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_trailing_space_does_not_hide_long_row(self, tmp_path):
        path = _write(tmp_path, "2 3\na 1 0 0 \nb 0 1 0 9 \n")
        with pytest.raises(DataFormatError) as err:
            EmbeddingTable.load_vec(path)
        assert ":3" in str(err.value)

    def test_blank_line_names_line(self, tmp_path):
        path = _write(tmp_path, "2 3\na 1 0 0\n\nb 0 1 0\n")
        with pytest.raises(DataFormatError) as err:
            EmbeddingTable.load_vec(path)
        assert ":3" in str(err.value)

    def test_extra_rows_name_first_extra_line(self, tmp_path):
        path = _write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\nc 0 0 1\nd 1 1 1\n")
        with pytest.raises(DataFormatError, match="more rows") as err:
            EmbeddingTable.load_vec(path)
        assert ":4" in str(err.value)

    @pytest.mark.parametrize("text", ["1 1\na 0.25\n", "1 3\na 0.25 2 3\n"], ids=["1x1", "1x3"])
    def test_single_row_is_2d(self, tmp_path, text):
        table = EmbeddingTable.load_vec(_write(tmp_path, text))
        assert table.vectors.shape == (1, table.dim)
        assert table.vectors[0, 0] == np.float32(0.25)

    def test_value_only_python_float_reads_names_line(self, tmp_path):
        # Python's float() takes these; numpy's parser, the only one, does not
        for value in ["1_0", "0x1p3"]:
            path = _write(tmp_path, f"2 2\na {value} 0\nb 0 1\n")
            with pytest.raises(DataFormatError) as err:
                EmbeddingTable.load_vec(path)
            assert ":2:" in str(err.value)

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        bits=hnp.arrays(
            np.uint32,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
            elements=st.integers(0, 2**32 - 1),
        )
    )
    @example(  # -0, smallest subnormal, largest negative subnormal, FLT_MIN, +-FLT_MAX
        bits=np.array(
            [[0x80000000, 0x00000001, 0x807FFFFF, 0x00800000, 0x7F7FFFFF, 0xFF7FFFFF]],
            dtype=np.uint32,
        )
    )
    def test_round_trip_bit_exact_property(self, tmp_path, bits):
        # arbitrary finite bit patterns: subnormals, both zeros, +-FLT_MAX
        vectors = bits.view(np.float32).copy()
        vectors[~np.isfinite(vectors)] = np.float32(-0.0)
        words = [f"w{i}" for i in range(vectors.shape[0])]
        path = tmp_path / "prop.vec"
        EmbeddingTable(words, vectors).save_vec(path)
        back = EmbeddingTable.load_vec(path)
        assert back.words == words
        assert np.array_equal(back.vectors.view(np.uint32), vectors.view(np.uint32))

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_text_save_vec_never_writes_matches_float_reference(self, tmp_path, data):
        """Values as other writers spell them (fixed or exponent digits,
        -0.0), a trailing space on every row or none, LF or CRLF."""
        shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=5), label="shape")
        bits = data.draw(hnp.arrays(np.uint32, shape, elements=st.integers(0, 2**32 - 1)))
        vectors = bits.view(np.float32).astype(np.float64)
        vectors[~np.isfinite(vectors)] = -0.0
        spell = st.sampled_from(["%.4f", "%.9g", "%e", "%.3E", "%r"])
        rows = [[data.draw(spell) % v for v in row] for row in vectors.tolist()]
        after_last = data.draw(st.sampled_from([" ", ""]), label="after last value")
        newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="line end")
        _assert_loads_as_float_reference(tmp_path, rows, after_last, newline)

    def test_other_spellings_match_float_reference(self, tmp_path):
        rows = [["0.1250", "-0.0", "1e-05", "-2.5E+3"], ["1.00000003e+00", "+7", ".5", "3."]]
        _assert_loads_as_float_reference(tmp_path, rows, after_last="", newline="\n")

    @pytest.mark.parametrize(
        "row, line",
        [
            ("a 1 x 0 0", 3001),  # an unparseable value
            ("a 1 0 0", 4567),  # a short row
            ("a 1 0 0 0 9", 4999),  # a long row
            ("a\t1\t0\t0\t0", 2345),  # no space at all
            ("a ", 3333),  # no values
        ],
        ids=["unparseable", "short", "long", "no-space", "no-values"],
    )
    def test_fault_deep_in_table_names_its_line(self, tmp_path, row, line):
        n = 5000
        lines = [f"w{i} {i} 0.5 -1 2e-3" for i in range(n)]
        lines[line - 2] = row
        path = _write(tmp_path, f"{n} 4\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            EmbeddingTable.load_vec(path)
        assert f":{line}:" in str(err.value)

    def test_invalid_utf8_deep_in_table_names_its_line(self, tmp_path):
        """The decoder reads ahead, so the line is found by a binary rescan."""
        lines = [f"w{i} {i} 0.5".encode() for i in range(5000)]
        lines[3000] = b"w\xff 1 0"
        path = tmp_path / "latin1.vec"
        path.write_bytes(b"5000 2\n" + b"\n".join(lines) + b"\n")
        with pytest.raises(DataFormatError, match=r"latin1\.vec:3002: not UTF-8: byte 0xff at column 2"):
            EmbeddingTable.load_vec(path)

    @pytest.mark.parametrize("header", ["4000000000 300", "3 300"])
    def test_overstated_header_allocates_nothing_it_declares(self, tmp_path, header):
        path = _write(tmp_path, f"{header}\n" + "a " + " ".join(["1"] * 300) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="declares") as err:
                EmbeddingTable.load_vec(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ":1:" in str(err.value)
        assert peak < 1 << 20

    def test_short_row_after_rows_that_fill_the_file_names_its_line(self, tmp_path):
        # 10 full rows and a short one hold fewer bytes than 11 rows of 300
        # values, so the line must still be parsed, not counted as extra
        rows = ["a" * 9 + f"{i} " + " ".join(["1"] * 300) for i in range(10)]
        path = _write(tmp_path, "20 300\n" + "\n".join(rows) + "\nshort 1 2\n")
        with pytest.raises(DataFormatError, match="300 numbers") as err:
            EmbeddingTable.load_vec(path)
        assert ":12:" in str(err.value)

    def test_empty_body_is_a_count_error_without_numpy_warning(self, tmp_path, recwarn):
        with pytest.raises(DataFormatError, match="declares 2 words but file has 0"):
            EmbeddingTable.load_vec(_write(tmp_path, "2 3\n"))
        assert not recwarn.list

    def test_peak_beyond_returned_table_is_bounded(self, tmp_path):
        """The load holds the table once: loadtxt fills one array sized by
        the header, and the lines pass through one at a time."""
        rng = np.random.default_rng(5)
        n, d = 20_000, 50
        vectors = rng.standard_normal((n, d)).astype(np.float32)
        path = tmp_path / "peak.vec"
        EmbeddingTable([f"w{i}" for i in range(n)], vectors).save_vec(path)
        tracemalloc.start()
        try:
            table = EmbeddingTable.load_vec(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(table.vectors, vectors)
        assert peak - held < 1 << 20, (peak - held, held)


def _assert_loads_as_float_reference(tmp_path, rows, after_last, newline):
    """``load_vec`` reads the table of these value texts as ``float()`` does,
    bit for bit after rounding to float32."""
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines += [f"w{i} " + " ".join(row) + after_last for i, row in enumerate(rows)]
    path = tmp_path / "spelled.vec"
    path.write_bytes((newline.join(lines) + newline).encode())
    table = EmbeddingTable.load_vec(path)
    words, vectors = read_vec(path)
    assert table.words == words
    assert np.array_equal(table.vectors.view(np.uint32), vectors.view(np.uint32))

def _bits(*values):
    return [int(np.float32(v).view(np.uint32)) for v in values]


_F32_1E_4 = _bits(1e-4)[0]  # 9.9999997e-05, just below 1e-4: scientific
_F32_1E6 = _bits(1e6)[0]  # 1e6 exactly: scientific; 999999.94 below it is not
# float32 bit patterns in the binades [2**-14, 2**20) that hold 1e-4 <= |v| < 1e6, either sign
_POSITIONAL_BITS = st.builds(
    lambda sign, bits: (sign << 31) | bits, st.integers(0, 1), st.integers(113 << 23, (147 << 23) - 1)
)


class TestSaveVec:
    @pytest.mark.parametrize("word", ["a b", "a\nb", "a\rb"], ids=["space", "lf", "cr"])
    def test_word_with_separator_rejected_before_writing(self, tmp_path, word):
        table = EmbeddingTable(["ok", word], np.eye(2, dtype=np.float32))
        path = tmp_path / "bad.vec"
        with pytest.raises(ValueError) as err:
            table.save_vec(path)
        assert f"word {word!r} in row 1" in str(err.value)
        assert not path.exists()

    def test_word_not_utf8_encodable_rejected_before_writing(self, tmp_path):
        table = EmbeddingTable(["ok", "bad\ud800"], np.eye(2, dtype=np.float32))
        path = tmp_path / "bad.vec"
        with pytest.raises(ValueError, match="UTF-8") as err:
            table.save_vec(path)
        assert "in row 1" in str(err.value)
        assert not path.exists()

    def test_non_finite_values_written_as_str(self, tmp_path):
        vectors = np.array([[np.nan, 1.5], [-np.inf, np.inf]], dtype=np.float32)
        path = tmp_path / "nonfinite.vec"
        EmbeddingTable(["a", "b"], vectors).save_vec(path)
        assert path.read_text() == "2 2\na nan 1.5\nb -inf inf\n"

    @pytest.mark.parametrize(
        "cfg, sha256",
        [
            (
                dict(vocab_size=400, dim=8, n_topics=4, seed=11),
                "b8bf3ead8662de52400da82485a1ee0d434bd7703cc4bba23f9c939761adf599",
            ),
            (  # the many-posts bench table at seed 1; 14 of its rows go to str()
                dict(vocab_size=3000, dim=50, seed=1),
                "5f93057955bd003336b80a0077342f628f5c1cc44e9e16dc7f7ea0258f3f1131",
            ),
        ],
        ids=["400x8", "3000x50"],
    )
    def test_synth_table_bytes_match_per_value_str_writer(self, tmp_path, cfg, sha256):
        # digests of files written by the per-value str() writer
        small = dict(n_users=20, posts_per_user=2, institution_count=2, users_per_institution=3)
        generate(SynthConfig(**cfg, **small), out_dir=tmp_path)
        assert hashlib.sha256((tmp_path / "embeddings.vec").read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("chunk_values", [1, 7, 64])
    def test_chunking_does_not_change_bytes(self, tmp_path, monkeypatch, chunk_values):
        rng = np.random.default_rng(3)
        vectors = (rng.standard_normal((40, 9)) * 10.0 ** rng.integers(-5, 7, (40, 9)))
        table = EmbeddingTable([f"w{i}" for i in range(40)], vectors.astype(np.float32))
        table.save_vec(tmp_path / "default.vec")
        monkeypatch.setattr(vectext, "CHUNK_VALUES", chunk_values)
        table.save_vec(tmp_path / "chunked.vec")
        assert (tmp_path / "default.vec").read_bytes() == (tmp_path / "chunked.vec").read_bytes()

    def test_fast_path_certifies_nearly_all_positional_values(self):
        values = np.random.default_rng(0).standard_normal(20_000).astype(np.float32)
        _, exact = vectext._fast_rows(values.reshape(-1, 1))
        assert exact.mean() > 0.99

    @pytest.mark.parametrize(
        "value, exact",
        [
            (1.5, True), (-0.1, True), (123456.7, True), (np.float32(1e-4), False),
            (0.0, False), (-0.0, False), (2e6, False), (0.5, False), (1024.0, False),
            (294487.375, False),  # .37 and .38 are equally near: a tie
        ],
    )
    def test_fallback_cases(self, value, exact):
        _, got = vectext._fast_rows(np.array([[value]], dtype=np.float32))
        assert got[0] == exact

    @settings(max_examples=300, deadline=None)
    @given(
        bits=st.lists(st.one_of(st.integers(0, 2**32 - 1), _POSITIONAL_BITS), min_size=1, max_size=40)
    )
    @example(bits=[_F32_1E_4 - 1, _F32_1E_4, _F32_1E_4 + 1, _F32_1E6 - 1, _F32_1E6, _F32_1E6 + 1])
    @example(bits=_bits(2.0**-13, 2.0**-12, 0.5, 1.0, 2.0, 1024.0, 2.0**19, -(2.0**19)))
    @example(bits=[0x00000000, 0x80000000, 0x00000001, 0x7F7FFFFF, 0xFF7FFFFF])
    @example(bits=_bits(294487.375, -294487.375, 0.1, 999999.9, -123456.7, -999999.94))
    @example(bits=[0x7FC00000, 0xFFC00000, 0x7F800000, 0xFF800000, 0x7F800001])  # NaN, inf
    def test_value_text_is_str(self, bits):
        # per value: the fast path where it certifies, str() where it does not
        values = np.array(bits, dtype=np.uint32).view(np.float32)
        expected = [str(v).encode() for v in values]
        column = values.reshape(-1, 1)
        lines, exact = vectext._fast_rows(column)
        assert [t for t, ok in zip(lines, exact) if ok] == [t for t, ok in zip(expected, exact) if ok]
        assert list(vectext.row_texts(column)) == expected


class TestLookup:
    """One lookup rule: a token matches the row stored under exactly that
    string (post tokens arrive lowercased)."""

    def test_known_word(self, tiny_table):
        flat, n_matched, _ = flat_token_ids(tiny_table, [["a"]])
        assert flat.tolist() == [0] and n_matched.tolist() == [1]

    def test_unknown_word(self, tiny_table):
        flat, n_matched, _ = flat_token_ids(tiny_table, [["zzz"]])
        assert flat.tolist() == [] and n_matched.tolist() == [0]

    def test_tokens_match_rows_as_stored(self):
        vectors = np.array([[1.0], [2.0], [3.0]], dtype=np.float32)
        table = EmbeddingTable(["Apple", "apple", "Pear"], vectors)
        posts = [["Apple"], ["apple"], ["APPLE"], ["Pear"], ["pear"]]
        flat, n_matched, _ = flat_token_ids(table, posts)
        assert flat.tolist() == [0, 1, 2]
        assert n_matched.tolist() == [1, 1, 0, 1, 0]


def _post_row(table, tokens):
    """What post_vectors_matrix gives ``tokens`` as the second of four posts:
    (its row or None, n_matched, n_tokens)."""
    means, n_matched, n_tokens = post_vectors_matrix(table, [["e", "a"], tokens, ["zzz"], ["c"]])
    assert means.shape == (int((n_matched > 0).sum()), table.dim)
    row = means[1] if n_matched[1] > 0 else None
    return row, int(n_matched[1]), int(n_tokens[1])


class TestPostVector:
    def test_two_word_mean(self, tiny_table):
        row, n_matched, n_tokens = _post_row(tiny_table, ["a", "b"])
        assert row == pytest.approx([0.5, 0.5, 0.0])
        assert (n_matched, n_tokens) == (2, 2)

    def test_occurrence_weighting(self, tiny_table):
        row, _, _ = _post_row(tiny_table, ["a", "a", "b"])
        assert row == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_all_oov_absent(self, tiny_table):
        row, n_matched, n_tokens = _post_row(tiny_table, ["zzz"])
        assert row is None
        assert (n_matched, n_tokens) == (0, 1)

    def test_oov_skipped_in_mean(self, tiny_table):
        row, n_matched, n_tokens = _post_row(tiny_table, ["a", "zzz", "b"])
        assert row == pytest.approx([0.5, 0.5, 0.0])
        assert (n_matched, n_tokens) == (2, 3)

    def test_permutation_invariance(self, tiny_table):
        rng = np.random.default_rng(1)
        tokens = ["a", "b", "c", "d", "e", "a", "e"]
        base = _post_row(tiny_table, tokens)[0]
        for _ in range(5):
            shuffled = [tokens[i] for i in rng.permutation(len(tokens))]
            assert _post_row(tiny_table, shuffled)[0] == pytest.approx(base, abs=1e-12)

    def test_mean_within_component_bounds(self, tiny_table):
        rng = np.random.default_rng(2)
        words = tiny_table.words
        for _ in range(25):
            tokens = [words[i] for i in rng.integers(0, len(words), rng.integers(1, 10))]
            row = _post_row(tiny_table, tokens)[0]
            rows = tiny_table.vectors[[tiny_table.vocab[t] for t in tokens]]
            assert np.all(row >= rows.min(axis=0) - 1e-9)
            assert np.all(row <= rows.max(axis=0) + 1e-9)


class TestSegmentMean:
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["1-d", "2-d"])
    def test_run_means_into_callers_array(self, shape):
        """Each run's mean is its rows' mean, and the same bits whatever runs
        surround it; empty runs (first, middle, last) give NaN, and the result
        lands in the slice the caller passed."""
        rng = np.random.default_rng(7)
        counts = np.array([0, 3, 1, 0, 0, 12, 2, 0], dtype=np.int64)
        rows = rng.standard_normal((int(counts.sum()),) + shape) * 1e3
        buffer = np.full((len(counts) + 2,) + shape, 5.0)
        embeddings.segment_mean(rows, counts, buffer[1:-1])
        assert (buffer[0] == 5.0).all() and (buffer[-1] == 5.0).all()
        start = 0
        for i, n in enumerate(counts.tolist()):
            if n == 0:
                assert np.isnan(buffer[1 + i]).all()
                continue
            assert buffer[1 + i] == pytest.approx(rows[start : start + n].mean(axis=0), rel=1e-12)
            alone = np.empty((1,) + shape)
            embeddings.segment_mean(rows[start : start + n], counts[i : i + 1], alone)
            assert np.array_equal(buffer[1 + i], alone[0])
            start += n

    def test_no_rows(self):
        out = np.zeros(3)
        embeddings.segment_mean(np.empty(0), np.zeros(3, dtype=np.int64), out)
        assert np.isnan(out).all()


class TestPostVectorsMatrix:
    def _random_posts(self, table, n, seed):
        rng = np.random.default_rng(seed)
        words = table.words + ["oov1", "oov2"]
        posts = []
        for _ in range(n):
            k = int(rng.integers(0, 8))
            posts.append([words[i] for i in rng.integers(0, len(words), k)])
        return posts

    def test_matches_pointwise(self, tiny_table):
        posts = self._random_posts(tiny_table, 60, seed=3)
        means, n_matched, n_tokens = post_vectors_matrix(tiny_table, posts)
        rows = iter(means)
        for i, tokens in enumerate(posts):
            assert n_matched[i] == sum(t in tiny_table.vocab for t in tokens)
            assert n_tokens[i] == len(tokens)
            vector = post_vector(tiny_table, tokens)
            if vector is not None:
                assert next(rows) == pytest.approx(vector, abs=0)
        assert means.shape == ((n_matched > 0).sum(), tiny_table.dim)

    def test_thread_count_bit_identical(self, tiny_table):
        posts = self._random_posts(tiny_table, 500, seed=4)
        base, m1, t1 = post_vectors_matrix(tiny_table, posts, threads=1)
        for threads in (2, 4):
            means, m2, t2 = post_vectors_matrix(tiny_table, posts, threads=threads)
            assert np.array_equal(means, base)
            assert np.array_equal(m1, m2)

    def test_empty_and_trailing_oov_posts(self, tiny_table):
        posts = [["a"], [], ["zzz"], ["b", "a"], ["zzz"]]
        means, n_matched, _ = post_vectors_matrix(tiny_table, posts)
        assert n_matched.tolist() == [1, 0, 0, 2, 0]
        assert means.shape == (2, 3)
        assert means[1] == pytest.approx([0.5, 0.5, 0.0])

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("chunk_rows", [1, 3, 7])
    def test_chunking_bit_identical(self, monkeypatch, chunk_rows, threads):
        """Means and match counts do not depend on where chunks are cut, and
        the means are the matched posts' rows of one unchunked segment mean."""
        rng = np.random.default_rng(6)
        words = [f"w{i}" for i in range(9)]
        table = EmbeddingTable(words, rng.standard_normal((9, 5)).astype(np.float32))
        posts = [["oov"], []]  # zero-match posts open the list
        posts += [[words[i] for i in rng.integers(0, 9, int(rng.integers(0, 5)))] for _ in range(40)]
        posts += [["w1", "oov"], ["oov"], [], words * 2, ["oov"]]  # an 18-row post, zero-match tail
        posts += [[words[i] for i in rng.integers(0, 9, 4)] + ["oov"] for _ in range(10)]
        posts += [[], ["oov"]]

        monkeypatch.setattr(embeddings, "_CHUNK_BYTES", 10**12)
        base, base_matched, base_tokens = post_vectors_matrix(table, posts)
        assert (base_matched == 0).sum() >= 8 and base_matched.max() > 7
        monkeypatch.setattr(embeddings, "_CHUNK_BYTES", chunk_rows * 12 * 5)
        means, n_matched, n_tokens = post_vectors_matrix(table, posts, threads=threads)
        assert np.array_equal(means, base)
        assert np.array_equal(n_matched, base_matched)
        assert np.array_equal(n_tokens, base_tokens)
        flat, _, _ = flat_token_ids(table, posts)
        full = np.empty((len(posts), 5))
        embeddings.segment_mean(table.vectors[flat].astype(np.float64), base_matched, full)
        assert np.array_equal(means, full[base_matched > 0])
        empty, n_empty, _ = post_vectors_matrix(table, [], threads=threads)
        assert empty.shape == (0, 5) and n_empty.shape == (0,)

    def test_gathered_rows_do_not_grow_with_posts(self, monkeypatch):
        """Beyond the n x d output, memory grows only by the per-token index
        arrays (a few int64s a token), not by gathered rows (12*d bytes)."""
        monkeypatch.setattr(embeddings, "_CHUNK_BYTES", 32 * 12 * 256)
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(40)]
        table = EmbeddingTable(words, rng.standard_normal((40, 256)).astype(np.float32))

        def transient(n_posts):
            posts = [[words[(i * k) % 40] for k in range(1, 5)] for i in range(n_posts)]
            tracemalloc.start()
            try:
                means, _, _ = post_vectors_matrix(table, posts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - means.nbytes

        small, large = transient(250), transient(1000)
        assert large - small < 64 * 4 * 750

    def test_flat_token_ids_matches_per_post_lookup(self, tiny_table):
        posts = self._random_posts(tiny_table, 200, seed=5) + [[], ["oov1"]]
        flat, n_matched, n_tokens = flat_token_ids(tiny_table, posts)
        per_post = [[tiny_table.vocab[t] for t in p if t in tiny_table.vocab] for p in posts]
        assert flat.tolist() == [j for ids in per_post for j in ids]
        assert n_matched.tolist() == [len(ids) for ids in per_post]
        assert n_tokens.tolist() == [len(p) for p in posts]
        assert flat.dtype == n_matched.dtype == n_tokens.dtype == np.int64

    def test_flat_token_ids_no_posts(self, tiny_table):
        flat, n_matched, n_tokens = flat_token_ids(tiny_table, [])
        assert flat.shape == n_matched.shape == n_tokens.shape == (0,)


class TestFingerprint:
    def test_stable_and_content_sensitive(self, tmp_path):
        words = ["a", "b"]
        v1 = np.eye(2, dtype=np.float32)
        t1 = EmbeddingTable(words, v1)
        t2 = EmbeddingTable(words, v1.copy())
        assert t1.fingerprint() == t2.fingerprint()
        v3 = v1.copy()
        v3[0, 0] = 2.0
        assert EmbeddingTable(words, v3).fingerprint() != t1.fingerprint()
        assert EmbeddingTable(["a", "c"], v1).fingerprint() != t1.fingerprint()

    def test_golden_digest(self):
        """The digest of hashing ``vectors.tobytes()``, so a model trained
        against this table before the buffer was hashed in place still
        matches it: a cased word, a non-ASCII word, -0.0 and subnormals."""
        vectors = np.array(
            [[1.5, -0.0, 2.0], [1e-45, -3.25, 0.1], [0.0, 7e-39, -1e30]], dtype=np.float32
        )
        table = EmbeddingTable(["Apple", "пост", "b"], vectors)
        assert table.fingerprint() == (
            "45ae0a126e41d6be1f235b354328fe614ff2777479944119a22cb28a900f394f"
        )

    def test_blocks_of_words_hash_as_word_by_word(self):
        """Past 4,096 words, and with a non-ASCII word in the second block,
        the digest is the one that hashes each word and its NUL on its own."""
        words = [f"w{i}" for i in range(4100)]
        words[4097] = "ёж日本"
        vectors = np.arange(4100 * 2, dtype=np.float32).reshape(4100, 2)
        h = hashlib.sha256()
        h.update(b"embedding-table-v1")
        h.update(b"4100 2")
        for w in words:
            h.update(w.encode("utf-8"))
            h.update(b"\x00")
        h.update(vectors.tobytes())
        assert EmbeddingTable(words, vectors).fingerprint() == h.hexdigest()


class TestFreqSidecar:
    def test_load(self, tmp_path):
        path = tmp_path / "freq.csv"
        path.write_text("word,count\nа,10\nб,3\n", encoding="utf-8")
        assert dataio.read_freq_csv(path) == {"а": 10, "б": 3}

    def test_bad_count_names_line(self, tmp_path):
        path = tmp_path / "freq.csv"
        path.write_text("word,count\nа,x\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            dataio.read_freq_csv(path)
        assert ":2" in str(err.value)

    def test_duplicate_word_rejected(self, tmp_path):
        path = tmp_path / "freq.csv"
        path.write_text("word,count\nа,1\nа,2\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="duplicate"):
            dataio.read_freq_csv(path)


class TestTableConstruction:
    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError, match="duplicate") as err:
            EmbeddingTable(["a", "b", "b", "a"], np.eye(4, dtype=np.float32))
        assert "'b' (row 2)" in str(err.value)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable([], np.zeros((0, 3), dtype=np.float32))

    def test_vectors_immutable(self, tiny_table):
        with pytest.raises(ValueError):
            tiny_table.vectors[0, 0] = 9.0
