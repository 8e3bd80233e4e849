"""Deterministic synthetic-data oracle with a planted linear signal.

Construction
------------
Words live in ``n_topics`` Gaussian clusters in embedding space; within a
topic, sampling probabilities are Zipf-distributed, so a top-k count
vocabulary misses the informative tail while the embedding table covers it.
The last ``heldout_per_topic`` words of each topic stay in the table (and in
the frequency sidecar) but are never sampled into posts.

Each user draws a topic mixture around a community profile (institution
members share one profile, everyone else gets their own), writes posts whose
tokens follow the mixture, and receives the score

    score = 500 + 100 * z(latent) + noise_sd * eps,

where latent = w . (mixture-weighted expected token vector). The z-scoring
constants come from a fixed-size probe of virtual users drawn from a
dedicated seed stream, so every user's score depends only on (seed, user
index): adding users never perturbs earlier users. With signal pinned at
sd 100, the correlation ceiling of any predictor of the latent is

    r* = 100 / sqrt(100^2 + noise_sd^2).

Each post has its own generator stream, keyed by (seed, user, post), and
reads 2T uniforms from it for its T tokens. The first T pick each slot's
topic from the user's mixture; the next T pick the words, taken by topic in
ascending order and by slot within a topic, each from its topic's Zipf pool.
A pick is an inverse-CDF lookup (searchsorted over the cumulative
probabilities), the arithmetic Generator.choice uses, so all posts are drawn
with a few array operations and match a per-post loop of choice calls bit
for bit.

All randomness flows through named per-entity generator streams and all file
output is byte-deterministic for a fixed config.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingTable
from .dataio import RawPost

__all__ = ["SynthConfig", "SynthTruth", "SynthData", "generate"]

SCORE_MEAN = 500.0
SCORE_SD = 100.0
# Shape of the construction, fixed for every config; truth.json's config
# block lists them beside the SynthConfig fields.
ZIPF_EXPONENT = 1.1
TOPIC_SPREAD = 1.0
WORD_SPREAD = 0.15
INSTITUTION_COHESION = 6.0
_PROBE_USERS = 2048
_SIDECAR_TOKENS = 50_000_000

# Stream tags: one substream family per entity kind.
_TAG_GLOBAL, _TAG_WORDS, _TAG_COMMUNITY, _TAG_USER, _TAG_PROBE, _TAG_POST = range(1, 7)


@dataclass(frozen=True)
class SynthConfig:
    vocab_size: int = 5000
    dim: int = 50
    n_topics: int = 8
    n_users: int = 300
    posts_per_user: int = 20
    tokens_per_post: int = 12
    noise_sd: float = 30.0
    institution_count: int = 10
    users_per_institution: int = 10
    seed: int = 0
    heldout_per_topic: int = 0

    def validate(self) -> None:
        for name in (
            "vocab_size",
            "dim",
            "n_topics",
            "n_users",
            "posts_per_user",
            "tokens_per_post",
            "institution_count",
            "users_per_institution",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.n_topics > self.vocab_size:
            raise ValueError("n_topics cannot exceed vocab_size")
        if not np.isfinite(self.noise_sd):
            raise ValueError("noise_sd must be finite")
        if self.noise_sd < 0 or self.seed < 0:
            raise ValueError("noise_sd and seed must be non-negative")
        if self.institution_count * self.users_per_institution > self.n_users:
            raise ValueError("institution assignment needs more users than configured")
        per_topic = self.vocab_size // self.n_topics
        if self.heldout_per_topic < 0 or self.heldout_per_topic >= per_topic:
            raise ValueError("heldout_per_topic must leave at least one sampled word per topic")


@dataclass(frozen=True)
class SynthTruth:
    true_weights: np.ndarray  # embedding-space vector: score = true_weights.v + true_bias
    true_bias: float
    user_latent: dict  # user_id -> noiseless score
    institution_latent: dict  # institution_id -> mean of members' noiseless scores
    word_topics: dict  # word -> topic index
    heldout_words: list


@dataclass
class SynthData:
    config: SynthConfig
    table: EmbeddingTable
    posts: list  # RawPost, user-major order
    labels: dict  # user_id -> observed score
    mapping: dict  # user_id -> institution_id (institution members only)
    reference: dict  # institution_id -> latent mean
    truth: SynthTruth
    freq: dict  # word -> sidecar corpus count, written to freq.csv
    paths: dict = field(default_factory=dict)


def _rng(cfg: SynthConfig, *key) -> np.random.Generator:
    return np.random.default_rng((cfg.seed,) + key)


def _word_name(i: int) -> str:
    return f"w{i:06d}"


def _user_name(i: int) -> str:
    return f"u{i:05d}"


def _topic_blocks(cfg: SynthConfig) -> list[np.ndarray]:
    """Contiguous word-index blocks per topic (sizes differ by at most 1)."""
    bounds = np.linspace(0, cfg.vocab_size, cfg.n_topics + 1).astype(int)
    return [np.arange(bounds[t], bounds[t + 1]) for t in range(cfg.n_topics)]


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-exponent)
    return w / w.sum()


def _mixture(rng: np.random.Generator, profile: np.ndarray, cfg: SynthConfig) -> np.ndarray:
    conc = INSTITUTION_COHESION * cfg.n_topics * profile + 0.02
    return rng.dirichlet(conc)


def _own_profile_mixture(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    profile = rng.dirichlet(np.ones(cfg.n_topics))
    return _mixture(rng, profile, cfg)


def _cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative table Generator.choice searches when drawing from p."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _sample_tokens(cfg: SynthConfig, mixtures, pools, pool_probs) -> np.ndarray:
    """Token ids of every post, one row per post in user-major order, drawn
    as the module docstring describes."""
    T, P = cfg.tokens_per_post, cfg.posts_per_user
    u = np.empty((cfg.n_users * P, 2 * T))
    topics = np.empty((u.shape[0], T), dtype=np.int64)
    for i in range(cfg.n_users):
        for p in range(P):
            u[i * P + p] = _rng(cfg, _TAG_POST, i, p).random(2 * T)
        user = slice(i * P, (i + 1) * P)
        topics[user] = np.searchsorted(_cdf(mixtures[i]), u[user, :T], side="right")

    word_u = np.empty((u.shape[0], T))
    order = np.argsort(topics, axis=1, kind="stable")
    np.put_along_axis(word_u, order, u[:, T:], axis=1)
    del u, order

    flat_topics, flat_u = topics.ravel(), word_u.ravel()
    by_topic = np.argsort(flat_topics, kind="stable")
    bounds = np.r_[0, np.cumsum(np.bincount(flat_topics, minlength=cfg.n_topics))]
    token_ids = np.empty(flat_topics.size, dtype=np.int64)
    for t in range(cfg.n_topics):
        slots = by_topic[bounds[t] : bounds[t + 1]]
        picks = np.searchsorted(_cdf(pool_probs[t]), flat_u[slots], side="right")
        token_ids[slots] = pools[t][picks]
    return token_ids.reshape(topics.shape)


def generate(config: SynthConfig, out_dir=None) -> SynthData:
    """Generate the full dataset; write files under out_dir when given.

    Files: embeddings.vec, freq.csv, posts.jsonl, labels.csv, mapping.csv,
    reference.csv, truth.json — exactly the formats the rest of the pipeline
    consumes.
    """
    cfg = config
    cfg.validate()
    blocks = _topic_blocks(cfg)

    g_global = _rng(cfg, _TAG_GLOBAL)
    centers = g_global.standard_normal((cfg.n_topics, cfg.dim)) * TOPIC_SPREAD
    direction = g_global.standard_normal(cfg.dim)
    direction /= np.linalg.norm(direction)

    g_words = _rng(cfg, _TAG_WORDS)
    vectors = np.empty((cfg.vocab_size, cfg.dim), dtype=np.float64)
    word_topic = np.empty(cfg.vocab_size, dtype=np.int64)
    for t, block in enumerate(blocks):
        vectors[block] = centers[t] + WORD_SPREAD * g_words.standard_normal(
            (block.size, cfg.dim)
        )
        word_topic[block] = t
    words = [_word_name(i) for i in range(cfg.vocab_size)]
    table = EmbeddingTable(words, vectors.astype(np.float32))
    del vectors  # the float64 draws would stay alive until the files are written

    # Sampling pools exclude held-out words; Zipf ranks follow block order.
    pools = []
    pool_probs = []
    expected_topic_vec = np.empty((cfg.n_topics, cfg.dim), dtype=np.float64)
    heldout: list[str] = []
    for t, block in enumerate(blocks):
        n_heldout = cfg.heldout_per_topic
        pool = block[: block.size - n_heldout] if n_heldout else block
        heldout.extend(_word_name(i) for i in block[block.size - n_heldout :])
        probs = _zipf_weights(pool.size, ZIPF_EXPONENT)
        pools.append(pool)
        pool_probs.append(probs)
        expected_topic_vec[t] = probs @ np.asarray(table.vectors[pool], dtype=np.float64)

    topic_means = expected_topic_vec @ direction  # latent value of each pure topic

    # Standardization constants from a fixed probe, independent of n_users.
    probe = np.empty(_PROBE_USERS)
    for k in range(_PROBE_USERS):
        mix = _own_profile_mixture(_rng(cfg, _TAG_PROBE, k), cfg)
        probe[k] = float(mix @ topic_means)
    probe_mean = float(probe.mean())
    probe_sd = float(probe.std())
    if probe_sd <= 0:
        raise ValueError("degenerate synthetic signal; increase n_topics")

    scale = SCORE_SD / probe_sd
    # Effective affine map from embedding space to score space:
    # score(v) = scale * (v . direction) + (SCORE_MEAN - scale * probe_mean)
    true_weights = scale * direction
    true_bias = SCORE_MEAN - scale * probe_mean

    profiles = [
        _rng(cfg, _TAG_COMMUNITY, c).dirichlet(np.ones(cfg.n_topics))
        for c in range(cfg.institution_count)
    ]

    n_assigned = cfg.institution_count * cfg.users_per_institution
    user_ids = [_user_name(i) for i in range(cfg.n_users)]
    mixtures = np.empty((cfg.n_users, cfg.n_topics))
    labels: dict[str, float] = {}
    user_latent: dict[str, float] = {}
    mapping: dict[str, str] = {}
    members: dict[str, list[float]] = {}
    for i, user_id in enumerate(user_ids):
        g_user = _rng(cfg, _TAG_USER, i)
        if i < n_assigned:
            inst = f"inst{i // cfg.users_per_institution:04d}"
            mixtures[i] = _mixture(g_user, profiles[i // cfg.users_per_institution], cfg)
            mapping[user_id] = inst
        else:
            mixtures[i] = _own_profile_mixture(g_user, cfg)
        latent = SCORE_MEAN + scale * (float(mixtures[i] @ topic_means) - probe_mean)
        noise = float(g_user.standard_normal()) * cfg.noise_sd
        user_latent[user_id] = latent
        labels[user_id] = latent + noise
        if user_id in mapping:
            members.setdefault(mapping[user_id], []).append(latent)
    institution_latent = {inst: float(np.mean(vals)) for inst, vals in sorted(members.items())}

    token_ids = _sample_tokens(cfg, mixtures, pools, pool_probs)
    names = np.asarray(words)
    posts: list[RawPost] = []
    P = cfg.posts_per_user
    for i, user_id in enumerate(user_ids):
        for p, row in enumerate(names[token_ids[i * P : (i + 1) * P]].tolist()):
            posts.append(RawPost(user_id=user_id, post_id=f"{user_id}-p{p:04d}", text=" ".join(row)))

    # Sidecar counts mimic the big unsupervised corpus: expected draws over
    # _SIDECAR_TOKENS tokens with uniform topic weight and full-block Zipf
    # ranks, so held-out words keep realistic nonzero counts. np.rint rounds
    # half to even, as round() does.
    freq: dict[str, int] = {}
    for block in blocks:
        expected = _zipf_weights(block.size, ZIPF_EXPONENT) * (_SIDECAR_TOKENS / cfg.n_topics)
        counts = np.maximum(1, np.rint(expected)).astype(np.int64)
        freq.update(zip(names[block].tolist(), counts.tolist()))

    truth = SynthTruth(
        true_weights=true_weights,
        true_bias=true_bias,
        user_latent=user_latent,
        institution_latent=institution_latent,
        word_topics={words[i]: int(word_topic[i]) for i in range(cfg.vocab_size)},
        heldout_words=heldout,
    )
    data = SynthData(
        config=cfg,
        table=table,
        posts=posts,
        labels=labels,
        mapping=mapping,
        reference=dict(institution_latent),
        truth=truth,
        freq=freq,
    )
    if out_dir is not None:
        data.paths = _write_dataset(data, Path(out_dir))
    return data


def _write_dataset(data: SynthData, out_dir: Path) -> dict:
    from . import dataio

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "embeddings": out_dir / "embeddings.vec",
        "freq": out_dir / "freq.csv",
        "posts": out_dir / "posts.jsonl",
        "labels": out_dir / "labels.csv",
        "mapping": out_dir / "mapping.csv",
        "reference": out_dir / "reference.csv",
        "truth": out_dir / "truth.json",
    }
    data.table.save_vec(paths["embeddings"])
    dataio.write_freq_csv(paths["freq"], data.freq)
    dataio.write_posts_jsonl(paths["posts"], data.posts)
    dataio.write_labels_csv(paths["labels"], data.labels)
    dataio.write_mapping_csv(paths["mapping"], data.mapping)
    dataio.write_reference_csv(paths["reference"], data.reference)
    truth_payload = {
        "true_weights": [float(w) for w in data.truth.true_weights],
        "true_bias": data.truth.true_bias,
        "user_latent": data.truth.user_latent,
        "institution_latent": data.truth.institution_latent,
        "word_topics": data.truth.word_topics,
        "heldout_words": data.truth.heldout_words,
        "config": {**asdict(data.config), "zipf_exponent": ZIPF_EXPONENT, "topic_spread": TOPIC_SPREAD,
                   "word_spread": WORD_SPREAD, "institution_cohesion": INSTITUTION_COHESION},
    }
    dataio.write_json(paths["truth"], truth_payload)
    return {k: str(v) for k, v in paths.items()}
