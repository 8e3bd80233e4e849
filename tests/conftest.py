import atexit
import os
import shutil
import tempfile
from pathlib import Path

from postscore import cli

# The CLI runs BLAS on one thread. Tests call cli.main in-process, after numpy
# has loaded, so the suite sets the same variables before its first numpy
# import: otherwise numpy's OpenBLAS, which LOOCV calls too, would follow the
# environment. The scipy the oracles import brings its own OpenBLAS, which
# reads them when it loads.
os.environ.update(cli._ONE_BLAS_THREAD)

# The cache of parsed inputs (postscore.cache.load), one entry layout for
# both tables (embeddings.load_vec_cached) and posts corpora
# (pipeline.load_corpus), lives in a directory of the suite's own for the
# whole session, set before any command runs in or out of process, so no
# test reads or writes the user's cache.
_CACHE_HOME = tempfile.mkdtemp(prefix="postscore-test-cache-")
atexit.register(shutil.rmtree, _CACHE_HOME, ignore_errors=True)
os.environ["XDG_CACHE_HOME"] = _CACHE_HOME

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from postscore.embeddings import EmbeddingTable  # noqa: E402
from postscore.pipeline import build_embedding_training, iter_clean_posts  # noqa: E402
from postscore.synth import SynthConfig, generate  # noqa: E402


@pytest.fixture(autouse=True)
def cold_table_cache():
    """Every test starts with an empty cache, with no table and no posts
    corpus in it; returns its directory."""
    root = Path(_CACHE_HOME) / "postscore"
    shutil.rmtree(root, ignore_errors=True)
    return root


@pytest.fixture(scope="session")
def tiny_table():
    """Five handmade 3-d vectors for exact arithmetic checks."""
    words = ["a", "b", "c", "d", "e"]
    vectors = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 0.0],
            [-1.0, 0.5, 2.0],
        ],
        dtype=np.float32,
    )
    return EmbeddingTable(words, vectors)


@pytest.fixture(scope="session")
def synth_small():
    """One shared small dataset: 60 users, 6 institutions, 480 posts."""
    cfg = SynthConfig(
        vocab_size=1200,
        dim=16,
        n_topics=4,
        n_users=60,
        posts_per_user=8,
        tokens_per_post=8,
        noise_sd=40.0,
        institution_count=6,
        users_per_institution=8,
        seed=7,
    )
    return generate(cfg)


@pytest.fixture(scope="session")
def synth_small_training(synth_small):
    clean = list(iter_clean_posts(synth_small.posts))
    ts, _ = build_embedding_training(clean, synth_small.labels, synth_small.table)
    return clean, ts
