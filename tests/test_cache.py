"""The cache of parsed inputs (``postscore.cache``) under damage to its
files, and its clean-up of the layout before format 2."""

import shutil
import tempfile
import tokenize
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postscore import cache, dataio, pipeline
from postscore.embeddings import EmbeddingTable, load_vec_cached
from postscore.textproc import RawPost

_FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def _tables(draw):
    words = draw(st.lists(st.text(alphabet="ab\u00fc\u65e5-", min_size=1, max_size=3),
                          min_size=1, max_size=6, unique=True))
    dim = draw(st.integers(1, 4))
    values = draw(st.lists(_FLOAT32, min_size=len(words) * dim, max_size=len(words) * dim))
    return EmbeddingTable(words, np.array(values, dtype=np.float32).reshape(len(words), dim))


_POSTS = st.lists(
    st.tuples(st.sampled_from(["u1", "u2", "\u00fc"]), st.text(alphabet="ab \u00fc'-.w:/", max_size=12),
              st.booleans()),
    max_size=8,
)


def _write_input(data, path):
    """Write a random table or posts file at ``path``; returns its loader
    through the cache, its parse without it, and a check that two values
    are the same."""
    if data.draw(st.booleans()):
        data.draw(_tables()).save_vec(path)

        def same(a, b):
            assert a.words == b.words
            assert a.vectors.dtype == b.vectors.dtype == np.float32
            assert np.array_equal(a.vectors.view(np.uint32), b.vectors.view(np.uint32))
            assert a.fingerprint() == b.fingerprint()

        return load_vec_cached, EmbeddingTable.load_vec, same
    posts = data.draw(_POSTS)
    dataio.write_posts_jsonl(path, [RawPost(u, f"p{i}", text, repost) for i, (u, text, repost) in enumerate(posts)])

    def parse(path):
        stats = pipeline.FilterStats()
        return pipeline.Corpus.from_posts(pipeline.iter_clean_posts(dataio.iter_posts_jsonl(path), stats), stats)

    def same(a, b):
        assert (a.users, a.tokens, a.stats) == (b.users, b.tokens, b.stats)
        for name in ("codes", "ids", "offsets"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)

    return pipeline.load_corpus, parse, same


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_damage_to_an_entry_gives_back_the_parse(data):
    """Truncating any file of a table's or a corpus's entry to any length,
    or flipping any one of its bytes, makes the next load give exactly what
    the parse gives, and never raise."""
    root = cache.cache_root()
    shutil.rmtree(root, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        load, parse, same = _write_input(data, path)
        load(path)
        target = data.draw(st.sampled_from(sorted(root.iterdir())))
        content = bytearray(target.read_bytes())
        at = data.draw(st.integers(0, len(content) - 1))
        if data.draw(st.booleans(), label="truncate"):
            del content[at:]
        else:
            content[at] ^= data.draw(st.integers(1, 255))
        target.write_bytes(content)
        value, digest = load(path)
        same(value, parse(path))
        assert digest == dataio.sha256_file(path)


def test_files_of_the_earlier_layout_are_removed(tmp_path, cold_table_cache):
    """A table entry of the layout before format 2 (``<key>.npy`` and
    ``<key>.json``) is removed when an entry is next stored. A corpus entry
    of it (``<key>.posts.arrays`` and ``<key>.posts.meta``) counts as the
    least recently used corpus; other files stay."""
    cold_table_cache.mkdir(parents=True)
    old = ["a" * 64 + ".npy", "a" * 64 + ".json", "b" * 64 + ".posts.arrays", "b" * 64 + ".posts.meta"]
    for name in [*old, "notes.txt"]:
        (cold_table_cache / name).write_bytes(b"x")
    vec = tmp_path / "t.vec"
    EmbeddingTable(["a"], np.ones((1, 2), dtype=np.float32)).save_vec(vec)
    _, key = load_vec_cached(vec)
    assert sorted(p.name for p in cold_table_cache.iterdir()) == sorted(
        [*old[2:], "notes.txt", f"{key}.table.json", f"{key}.table.vectors.npy"])


@pytest.mark.parametrize(
    "old, new, raised",
    [
        (b"v\x00{", b"6\x00{", tokenize.TokenError),  # header length cut to mid-dict
        (b"'<i4'", b"',i4'", SyntaxError),
        (b"', 'fortran", b"',b'fortran", TypeError),
        (b"(0,)", b"(0L)", UserWarning),  # parsed as a Python 2 header, then refused
    ],
    ids=["TokenError", "SyntaxError", "TypeError", "UserWarning"],
)
def test_damaged_array_header_gives_back_the_parse(tmp_path, cold_table_cache, old, new, raised):
    """One byte of the header of the codes array of an empty posts file's
    entry, changed so that numpy's header parser fails with ``raised``:
    the next load is a miss that gives the parse, and no warning escapes."""
    path = tmp_path / "posts.jsonl"
    path.write_bytes(b"")
    _, key = pipeline.load_corpus(path)
    codes = cold_table_cache / f"{key}.posts.codes.npy"
    content = codes.read_bytes()
    assert len(old) == len(new) and content.count(old) == 1
    codes.write_bytes(content.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(raised):
            np.load(codes, mmap_mode="r", allow_pickle=False)
        corpus, digest = pipeline.load_corpus(path)
    assert (len(corpus), corpus.users, corpus.stats) == (0, [], pipeline.FilterStats())
    assert digest == key
    assert codes.read_bytes() == content  # stored again by the miss
