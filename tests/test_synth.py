import filecmp
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from postscore import synth
from postscore.pipeline import build_embedding_training, iter_clean_posts
from postscore.model import loo_user_cv
from postscore.stats import pearson
from postscore.synth import SynthConfig, generate
from postscore.textproc import tokenize

from oracles import noise_for_ceiling


def _cfg(**overrides):
    base = dict(
        vocab_size=800,
        dim=12,
        n_topics=4,
        n_users=40,
        posts_per_user=5,
        tokens_per_post=6,
        noise_sd=25.0,
        institution_count=4,
        users_per_institution=6,
        seed=3,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        SynthConfig().validate()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _cfg(n_users=0).validate()

    def test_rejects_more_topics_than_words(self):
        with pytest.raises(ValueError):
            _cfg(n_topics=9000).validate()

    def test_rejects_oversubscribed_institutions(self):
        with pytest.raises(ValueError):
            _cfg(institution_count=10, users_per_institution=10, n_users=40).validate()

    @pytest.mark.parametrize("noise_sd", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite_noise(self, noise_sd):
        with pytest.raises(ValueError, match="noise_sd must be finite"):
            _cfg(noise_sd=noise_sd).validate()

    def test_rejects_heldout_swallowing_a_topic(self):
        with pytest.raises(ValueError):
            _cfg(heldout_per_topic=200).validate()


class TestGenerate:
    def test_shapes_and_formats(self):
        data = generate(_cfg())
        cfg = data.config
        assert len(data.table) == cfg.vocab_size
        assert data.table.dim == cfg.dim
        assert len(data.posts) == cfg.n_users * cfg.posts_per_user
        assert len(data.labels) == cfg.n_users
        assert len(data.mapping) == cfg.institution_count * cfg.users_per_institution
        assert set(data.reference) == set(data.truth.institution_latent)
        # post text survives the pipeline tokenizer unchanged
        for post in data.posts[:20]:
            assert tokenize(post.text) == post.text.split(" ")

    def test_scores_are_affine_in_latent_plus_noise(self):
        """observed label - latent score is N(0, noise_sd) noise."""
        cfg = _cfg(n_users=400, posts_per_user=1, noise_sd=35.0,
                   institution_count=1, users_per_institution=1)
        data = generate(cfg)
        resid = np.array([data.labels[u] - data.truth.user_latent[u] for u in data.labels])
        assert abs(resid.mean()) < 3 * 35.0 / np.sqrt(400)
        assert resid.std() == pytest.approx(35.0, rel=0.15)

    def test_label_distribution_near_target_scaling(self):
        """Generator contract: mean within 500±5 and sd within 100±10 at 500
        users (default noise)."""
        cfg = SynthConfig(
            vocab_size=2000, dim=16, n_topics=4, n_users=500, posts_per_user=1,
            tokens_per_post=5, institution_count=1, users_per_institution=1, seed=0,
        )
        labels = np.array(list(generate(cfg).labels.values()))
        assert abs(labels.mean() - 500.0) < 5.0
        assert abs(labels.std() - 100.0) < 10.0

    def test_adding_users_never_perturbs_earlier_users(self):
        small = generate(_cfg(n_users=40))
        large = generate(_cfg(n_users=56))
        for user_id, score in small.labels.items():
            assert large.labels[user_id] == score
            assert large.truth.user_latent[user_id] == small.truth.user_latent[user_id]
        # posts of existing users identical too
        small_posts = {p.post_id: p.text for p in small.posts}
        large_posts = {p.post_id: p.text for p in large.posts}
        for post_id, text in small_posts.items():
            assert large_posts[post_id] == text

    def test_same_seed_byte_identical_files(self, tmp_path):
        generate(_cfg(), out_dir=tmp_path / "one")
        generate(_cfg(), out_dir=tmp_path / "two")
        names = ["embeddings.vec", "freq.csv", "posts.jsonl", "labels.csv",
                 "mapping.csv", "reference.csv", "truth.json"]
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "one", tmp_path / "two", names, shallow=False
        )
        assert mismatch == [] and errors == []
        assert sorted(match) == sorted(names)

    def test_different_seed_changes_output(self):
        a = generate(_cfg(seed=3))
        b = generate(_cfg(seed=4))
        assert a.labels != b.labels

    def test_truth_record_round_trips_through_json(self, tmp_path):
        data = generate(_cfg(heldout_per_topic=5), out_dir=tmp_path)
        with open(data.paths["truth"], encoding="utf-8") as f:
            payload = json.load(f)
        assert payload["user_latent"] == data.truth.user_latent
        assert payload["heldout_words"] == data.truth.heldout_words
        assert payload["config"]["seed"] == data.config.seed
        assert len(payload["true_weights"]) == data.config.dim

    def test_institution_latent_is_member_mean(self):
        data = generate(_cfg())
        members = {}
        for user_id, inst in data.mapping.items():
            members.setdefault(inst, []).append(data.truth.user_latent[user_id])
        for inst, vals in members.items():
            assert data.truth.institution_latent[inst] == pytest.approx(float(np.mean(vals)))


def _reference_posts(cfg):
    """Post texts from the per-post Generator.choice loop: one choice over the
    user's topic mixture, then one over each distinct topic's word pool."""
    pools = [b[: b.size - cfg.heldout_per_topic] for b in synth._topic_blocks(cfg)]
    pool_probs = [synth._zipf_weights(pool.size, synth.ZIPF_EXPONENT) for pool in pools]
    n_assigned = cfg.institution_count * cfg.users_per_institution
    texts = []
    for i in range(cfg.n_users):
        g_user = synth._rng(cfg, synth._TAG_USER, i)
        if i < n_assigned:
            community = synth._rng(cfg, synth._TAG_COMMUNITY, i // cfg.users_per_institution)
            mixture = synth._mixture(g_user, community.dirichlet(np.ones(cfg.n_topics)), cfg)
        else:
            mixture = synth._own_profile_mixture(g_user, cfg)
        for p in range(cfg.posts_per_user):
            g_post = synth._rng(cfg, synth._TAG_POST, i, p)
            topic_draws = g_post.choice(cfg.n_topics, size=cfg.tokens_per_post, p=mixture)
            token_ids = np.empty(cfg.tokens_per_post, dtype=np.int64)
            for t in np.unique(topic_draws):
                slots = topic_draws == t
                token_ids[slots] = g_post.choice(pools[t], size=int(slots.sum()), p=pool_probs[t])
            texts.append(" ".join(synth._word_name(j) for j in token_ids))
    return texts


class TestSampler:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_topics=1),
            dict(vocab_size=300, n_topics=30),
            dict(tokens_per_post=1),
            dict(tokens_per_post=40),
            dict(heldout_per_topic=20),
            dict(institution_count=1, users_per_institution=1),
        ],
        ids=["one-topic", "30-topics", "one-token", "40-tokens", "heldout", "few-members"],
    )
    def test_posts_equal_per_post_choice_loop(self, overrides):
        cfg = _cfg(**overrides)
        data = generate(cfg)
        assert [post.text for post in data.posts] == _reference_posts(cfg)
        assert [post.post_id for post in data.posts] == [
            f"u{i:05d}-p{p:04d}" for i in range(cfg.n_users) for p in range(cfg.posts_per_user)
        ]

    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3)),
            min_size=1, max_size=40,
        ).filter(lambda w: sum(w) > 0),
        k=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_inverse_cdf_lookup_is_choice(self, weights, k, seed):
        p = np.asarray(weights)
        p /= p.sum()
        a = np.arange(p.size) * 7 + 3
        expected = np.random.default_rng(seed).choice(a, size=k, p=p)
        u = np.random.default_rng(seed).random(k)
        picks = a[np.searchsorted(synth._cdf(p), u, side="right")]
        assert np.array_equal(picks, expected)

    @given(
        a=st.integers(min_value=0, max_value=60),
        b=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_consecutive_uniform_draws_concatenate(self, a, b, seed):
        g = np.random.default_rng(seed)
        first, second = g.random(a), g.random(b)
        whole = np.random.default_rng(seed).random(a + b)
        assert np.array_equal(np.concatenate([first, second]), whole)


class TestHeldout:
    def test_heldout_words_absent_from_posts_but_in_table(self):
        data = generate(_cfg(heldout_per_topic=10))
        seen = set()
        for post in data.posts:
            seen.update(post.text.split(" "))
        held = set(data.truth.heldout_words)
        assert held
        assert not (held & seen)
        for w in held:
            assert w in data.table.vocab
            assert data.freq[w] >= 1

    def test_heldout_words_score_with_their_cluster(self):
        """Unseen words inherit their topic's score: the generalization
        property that separates embeddings from counting methods."""
        cfg = _cfg(vocab_size=1600, dim=16, n_users=80, posts_per_user=10,
                   tokens_per_post=8, heldout_per_topic=20, noise_sd=40.0)
        data = generate(cfg)
        clean = list(iter_clean_posts(data.posts))
        ts, _ = build_embedding_training(clean, data.labels, data.table)
        from postscore.model import fit
        from postscore.model import word_scores_array

        model = fit(ts)
        scores = word_scores_array(model, data.table)
        idx = {w: i for i, w in enumerate(data.table.words)}
        seen = set()
        for tp in clean:
            seen.update(tp.tokens)
        cluster_scores = {}
        for w in seen:
            cluster_scores.setdefault(data.truth.word_topics[w], []).append(scores[idx[w]])
        cluster_mean = {t: float(np.mean(v)) for t, v in cluster_scores.items()}
        xs = [scores[idx[w]] for w in data.truth.heldout_words]
        ys = [cluster_mean[data.truth.word_topics[w]] for w in data.truth.heldout_words]
        assert pearson(xs, ys).r > 0.5


class TestNoiselessLimit:
    def test_loocv_r_approaches_one(self):
        """With no target noise and many posts, the pipeline recovers the
        planted signal almost perfectly."""
        cfg = SynthConfig(
            vocab_size=2000, dim=24, n_topics=6, n_users=50, posts_per_user=60,
            tokens_per_post=10, noise_sd=0.0, institution_count=1,
            users_per_institution=1, seed=1,
        )
        data = generate(cfg)
        clean = list(iter_clean_posts(data.posts))
        ts, _ = build_embedding_training(clean, data.labels, data.table)
        preds = loo_user_cv(ts)
        r = pearson(
            [p.predicted for p in preds], [data.labels[p.user_id] for p in preds]
        ).r
        assert r > 0.98


class TestNoiseForCeiling:
    def test_formula(self):
        assert noise_for_ceiling(1.0) == 0.0
        assert noise_for_ceiling(0.7) == pytest.approx(100.0 * np.sqrt(1 / 0.49 - 1))
        with pytest.raises(ValueError):
            noise_for_ceiling(0.0)
