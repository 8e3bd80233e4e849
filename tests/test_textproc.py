import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from postscore.textproc import (
    FeatureAccumulator,
    RawPost,
    TokenizedPost,
    extract_features,
    shannon_entropy,
    should_filter,
    tokenize,
    tokenize_post,
)


class TestTokenize:
    def test_cyrillic_with_punctuation(self):
        assert tokenize("Привет, мир!") == ["привет", "мир"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_internal_apostrophe_and_hyphen(self):
        assert tokenize("don't re-read") == ["don't", "re-read"]

    def test_leading_trailing_punctuation_stripped(self):
        assert tokenize("-abc- 'def'") == ["abc", "def"]

    def test_digits_are_tokens(self):
        assert tokenize("room 101") == ["room", "101"]

    def test_underscore_splits(self):
        assert tokenize("snake_case") == ["snake", "case"]

    def test_idempotent_over_own_output(self):
        """Tokenizing the space-joined token list reproduces the tokens."""
        samples = [
            "Привет, мир!",
            "don't re-read THIS!!!",
            "a-b-c x 'quoted' 99 плюс-минус",
            "mixed КиРиЛлИцА and LATIN",
        ]
        for text in samples:
            tokens = tokenize(text)
            assert tokenize(" ".join(tokens)) == tokens


def _counted(text):
    """The feature accumulator after one post of ``text``."""
    acc = FeatureAccumulator()
    acc.add(RawPost("u", "p", text))
    return acc


class TestTokenizePost:
    """One post: its tokens, and the surface counts that FeatureAccumulator
    takes from the same raw-case tokens (the model path never counts)."""

    def test_only_author_id_and_tokens(self):
        tp = tokenize_post(RawPost("u", "p", "Hello WORLD again!"))
        assert [f.name for f in fields(tp)] == ["user_id", "post_id", "tokens"]
        assert tp == TokenizedPost("u", "p", ["hello", "world", "again"])

    def test_capitalization_counted_before_lowering(self):
        acc = _counted("Hello WORLD again")
        assert acc.counts == Counter({"hello": 1, "world": 1, "again": 1})
        assert acc.rate_caps == 2 / 3

    def test_emoji_and_exclaim_counts(self):
        acc = _counted("ура 😀😀! вот 🚀!")  # two tokens
        assert acc.rate_emoji == 3 / 2
        assert acc.rate_exclaim == 2 / 2

    def test_zwj_sequence_counts_base_code_points(self):
        # man+ZWJ+woman+ZWJ+girl: three emoji code points, ZWJ itself ignored
        acc = _counted("семья \U0001F468‍\U0001F469‍\U0001F467")  # one token
        assert acc.rate_emoji == 3

    def test_latin_share_counts(self):
        acc = _counted("слово word 123")
        assert acc.n_latin == 4
        assert acc.n_alpha == 9

    @pytest.mark.parametrize(
        "cp, expected",
        [
            # emoji blocks: first, last, and the neighbour just outside
            (0x1F2FF, (0, 0, 0)),
            (0x1F300, (1, 0, 0)),
            (0x1F5FF, (1, 0, 0)),
            (0x1F600, (1, 0, 0)),
            (0x1F64F, (1, 0, 0)),
            (0x1F650, (0, 0, 0)),
            (0x1F67F, (0, 0, 0)),
            (0x1F680, (1, 0, 0)),
            (0x1F6FF, (1, 0, 0)),
            (0x1F700, (0, 0, 0)),
            (0x1F8FF, (0, 0, 0)),
            (0x1F900, (1, 0, 0)),
            (0x1F9FF, (1, 0, 0)),
            (0x1FA00, (0, 0, 0)),
            (0x200D, (0, 0, 0)),
            # Latin letter ranges: first, last, and the neighbour just outside
            (0x0040, (0, 0, 0)),
            (0x0041, (0, 1, 1)),
            (0x005A, (0, 1, 1)),
            (0x005B, (0, 0, 0)),
            (0x0060, (0, 0, 0)),
            (0x0061, (0, 1, 1)),
            (0x007A, (0, 1, 1)),
            (0x007B, (0, 0, 0)),
            (0x00BF, (0, 0, 0)),
            (0x00C0, (0, 1, 1)),
            (0x00D6, (0, 1, 1)),
            (0x00D7, (0, 0, 0)),  # ×
            (0x00D8, (0, 1, 1)),
            (0x00F6, (0, 1, 1)),
            (0x00F7, (0, 0, 0)),  # ÷
            (0x00F8, (0, 1, 1)),
            (0x024F, (0, 1, 1)),
            (0x0250, (0, 0, 1)),
            (0x1DFF, (0, 0, 0)),
            (0x1E00, (0, 1, 1)),
            (0x1EFF, (0, 1, 1)),
            (0x1F00, (0, 0, 1)),
            # alphabetic outside the Latin ranges; numeric but not alphabetic
            (0x00AA, (0, 0, 1)),  # ª
            (0x00B2, (0, 0, 0)),  # ²
            (0x216B, (0, 0, 0)),  # Ⅻ
        ],
        ids=lambda v: f"U+{v:04X}" if isinstance(v, int) else None,
    )
    def test_range_edges(self, cp, expected):
        # "1" gives the post a token and counts as none of the three; for one
        # post, rate times tokens is the emoji count (exact for 1 or 2 tokens).
        acc = _counted("1 " + chr(cp))
        assert (acc.rate_emoji * acc.total_tokens, acc.n_latin, acc.n_alpha) == expected


def _split_only_should_filter(post):
    """should_filter's rule before the `"www." in lowered` pre-check."""
    lowered = post.text.lower()
    if "http://" in lowered or "https://" in lowered:
        return True, "url"
    if any(chunk.startswith("www.") for chunk in lowered.split()):
        return True, "url"
    if post.is_repost:
        return True, "repost"
    if not tokenize(post.text):
        return True, "empty"
    return False, None


class TestShouldFilter:
    def test_url_http(self):
        assert should_filter(RawPost("u", "p", "смотри http://a.b")) == (True, "url")

    def test_url_https_and_www(self):
        assert should_filter(RawPost("u", "p", "https://x.y"))[1] == "url"
        assert should_filter(RawPost("u", "p", "вот www.example.com"))[1] == "url"

    def test_plain_post_kept(self):
        assert should_filter(RawPost("u", "p", "просто пост")) == (False, None)

    def test_punctuation_only_is_empty(self):
        assert should_filter(RawPost("u", "p", "!!!")) == (True, "empty")

    def test_repost(self):
        assert should_filter(RawPost("u", "p", "текст", is_repost=True)) == (True, "repost")

    @given(
        st.lists(
            st.sampled_from(["www.", "WWW.", "ww", "w.", "http://", "a", "Я", "1", "!", " ", "\t",
                             "\n", "\x1c", "\u00a0", "\u3000"]),
            max_size=12,
        ).map("".join),
        st.booleans(),
    )
    @example("x\x1cwww.y", False)
    @example("x\u00a0www.y", False)
    @example("xwww.y", False)
    def test_www_substring_check_matches_split_rule(self, text, is_repost):
        post = RawPost("u", "p", text, is_repost=is_repost)
        assert should_filter(post) == _split_only_should_filter(post)

    def test_pure_and_order_independent(self):
        posts = [
            RawPost("u", str(i), t)
            for i, t in enumerate(["a b", "http://x", "", "ok!", "www.z ok"])
        ]
        first = [should_filter(p) for p in posts]
        second = [should_filter(p) for p in reversed(posts)][::-1]
        assert first == [should_filter(p) for p in posts]
        assert first == second


class TestShannonEntropy:
    def test_degenerate_distribution(self):
        assert shannon_entropy({"a": 3}) == 0.0

    def test_uniform_over_two(self):
        assert shannon_entropy({"a": 1, "b": 1}) == 1.0

    def test_uniform_over_four(self):
        assert shannon_entropy({"a": 1, "b": 1, "c": 1, "d": 1}) == 2.0

    def test_uniform_exact_for_any_k(self):
        for k in range(1, 40):
            counts = {f"w{i}": 1 for i in range(k)}
            assert abs(shannon_entropy(counts) - math.log2(k)) < 1e-12

    def test_hand_computed_skewed(self):
        # {a:2, b:1, c:1}: -(.5*log2 .5 + .25*log2 .25 * 2) = 1.5
        assert shannon_entropy({"a": 2, "b": 1, "c": 1}) == pytest.approx(1.5, abs=1e-12)

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(Counter())

    def test_bounded_by_log_vocab(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(1, 30))
            counts = {f"w{i}": int(c) for i, c in enumerate(rng.integers(1, 20, size=k))}
            h = shannon_entropy(counts)
            assert -1e-12 <= h <= math.log2(len(counts)) + 1e-12


def _tp(user, tokens, caps=0, emoji=0, exclaim=0):
    """A post whose text has ``tokens`` (the first ``caps`` capitalized) and
    ``emoji`` emoji and ``exclaim`` '!' outside them. Latin and alphabetic
    characters are those of the tokens."""
    words = [t.capitalize() if i < caps else t for i, t in enumerate(tokens)]
    text = " ".join(words + ["😀" * emoji, "!" * exclaim])
    return RawPost(user_id=user, post_id=f"{user}-{text}", text=text)


def _features(posts):
    """featurize's features for one user's posts, all of which pass the filter."""
    [features] = extract_features(posts)
    assert features.n_posts == len(posts)
    return features


class TestSurfaceFeatures:
    def test_single_plain_post(self):
        f = _features([_tp("u", ["a", "b"])])
        assert f.caps_rate == 0.0
        assert f.emoji_rate == 0.0
        assert f.exclaim_rate == 0.0
        assert f.avg_post_len == 2.0
        assert f.vocab_size == 2
        assert f.entropy_bits == 1.0

    def test_caps_rate_equal_post_weight(self):
        # (1/1 + 0/2) / 2 = 0.5
        f = _features([_tp("u", ["hi"], caps=1), _tp("u", ["ok", "ok"])])
        assert f.caps_rate == pytest.approx(0.5, abs=1e-12)

    def test_pooled_entropy(self):
        # tokens {a:2, b:1, c:1} overall -> 1.5 bits
        f = _features([_tp("u", ["a", "b"]), _tp("u", ["a", "c"])])
        assert f.entropy_bits == pytest.approx(1.5, abs=1e-12)
        assert f.vocab_size == 3

    def test_avg_word_len_pooled_over_tokens(self):
        f = _features([_tp("u", ["aa", "bbbb"]), _tp("u", ["c"])])
        assert f.avg_word_len == pytest.approx(7 / 3)

    def test_latin_rate_pooled_over_posts(self):
        # (2 + 1) Latin of (4 + 2) alphabetic characters
        f = _features([_tp("u", ["xy", "жз"]), _tp("u", ["z", "ж"])])
        assert f.latin_rate == pytest.approx(0.5)

    def test_latin_rate_zero_when_no_alpha(self):
        f = _features([_tp("u", ["123"])])
        assert f.latin_rate == 0.0

    def test_no_posts_rejected(self):
        with pytest.raises(ValueError):
            FeatureAccumulator().finish("u")

    def test_permutation_invariant(self):
        posts = [
            _tp("u", ["a", "b", "b"], caps=1, emoji=2),
            _tp("u", ["c"], exclaim=3),
            _tp("u", ["a", "д"]),
        ]
        rng = np.random.default_rng(3)
        base = _features(posts)
        for _ in range(5):
            shuffled = [posts[i] for i in rng.permutation(len(posts))]
            assert _features(shuffled) == base

    def test_invariant_bounds_on_random_users(self):
        rng = np.random.default_rng(11)
        alphabet = ["a", "bb", "ccc", "dd", "e"]
        for _ in range(30):
            posts, n_tokens = [], 0
            for p in range(int(rng.integers(1, 6))):
                tokens = [alphabet[i] for i in rng.integers(0, len(alphabet), rng.integers(1, 9))]
                posts.append(_tp("u", tokens, caps=int(rng.integers(0, len(tokens) + 1))))
                n_tokens += len(tokens)
            f = _features(posts)
            assert 0.0 <= f.caps_rate <= 1.0
            assert f.vocab_size <= n_tokens
            assert -1e-12 <= f.entropy_bits <= math.log2(max(f.vocab_size, 1)) + 1e-12
