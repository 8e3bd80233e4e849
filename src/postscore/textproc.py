"""Tokenization, post filtering, and per-user surface features.

Tokens are maximal runs of Unicode letters/digits with internal apostrophes
and hyphens preserved ("don't", "re-read"), lowercased. Only ``featurize``
reads capitalization, emoji, '!' and script counts: ``extract_features``
filters a post stream and feeds each kept post's raw text to its user's
FeatureAccumulator, so the model path only tokenizes. The module needs only
the standard library, so ``featurize`` never loads numpy. ``RawPost`` and
``FEATURE_COLUMNS`` belong to the file formats (``dataio``) and are
re-exported here.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .dataio import FEATURE_COLUMNS, RawPost

__all__ = [
    "RawPost",
    "TokenizedPost",
    "UserSurfaceFeatures",
    "FEATURE_COLUMNS",
    "tokenize",
    "tokenize_post",
    "should_filter",
    "shannon_entropy",
    "FeatureAccumulator",
    "extract_features",
]

# A token: letter/digit run, optionally continued by '- or ' joined runs.
# [^\W_] is "word character except underscore" = Unicode letters and digits.
_TOKEN_RE = re.compile(r"[^\W_]+(?:['\-][^\W_]+)*", re.UNICODE)

# Emoji blocks: Miscellaneous Symbols and Pictographs, Emoticons, Transport
# and Map Symbols, Supplemental Symbols and Pictographs. ZWJ sequences
# contribute their base code points; U+200D itself never counts.
_EMOJI_RE = re.compile(
    "[\U0001F300-\U0001F5FF\U0001F600-\U0001F64F\U0001F680-\U0001F6FF\U0001F900-\U0001F9FF]"
)

# Latin-script letters: ASCII, Latin-1 letters (minus × ÷), Latin Extended-A/B,
# Latin Extended Additional. Every code point in these ranges is alphabetic.
_LATIN_RE = re.compile("[A-Za-z\u00C0-\u00D6\u00D8-\u00F6\u00F8-\u024F\u1E00-\u1EFF]")


@dataclass(frozen=True)
class TokenizedPost:
    user_id: str
    post_id: str
    tokens: list[str]


@dataclass(frozen=True)
class UserSurfaceFeatures:
    """The per-user surface features; rates are per-post counts normalized by
    post length in tokens, averaged with equal post weight."""

    user_id: str
    caps_rate: float
    emoji_rate: float
    exclaim_rate: float
    latin_rate: float
    avg_post_len: float
    avg_word_len: float
    vocab_size: int
    entropy_bits: float
    n_posts: int = 0  # exposed so callers can control for posting volume


def tokenize(text: str) -> list[str]:
    """Lowercased tokens of ``text``; empty input gives an empty list."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def tokenize_post(post: RawPost) -> TokenizedPost:
    """One post's author, id and lowercased tokens."""
    return TokenizedPost(post.user_id, post.post_id, tokenize(post.text))


def should_filter(post: RawPost) -> tuple[bool, str | None]:
    """Whether a post is excluded from the corpus, and why.

    Filter reasons, in the order checked: "url" (contains http://, https://,
    or a whitespace-delimited chunk starting with "www."), "repost", "empty"
    (no letter/digit tokens). Pure and order-independent across a corpus.
    """
    lowered = post.text.lower()
    if "http://" in lowered or "https://" in lowered:
        return True, "url"
    # A chunk can start with "www." only where the substring occurs.
    if "www." in lowered and any(chunk.startswith("www.") for chunk in lowered.split()):
        return True, "url"
    if post.is_repost:
        return True, "repost"
    if _TOKEN_RE.search(post.text) is None:
        return True, "empty"
    return False, None


def shannon_entropy(token_counts) -> float:
    """Shannon entropy in bits of the unigram distribution.

    ``token_counts`` maps token -> count (a Counter works). Uses
    H = log2(total) - sum(c*log2 c)/total, which is exact for uniform
    distributions (H == log2 k when all counts are equal).
    """
    counts = [c for c in token_counts.values() if c > 0]
    total = sum(counts)
    if total < 1:
        raise ValueError("entropy of an empty token multiset is undefined")
    weighted = sum(c * math.log2(c) for c in counts)
    return math.log2(total) - weighted / total


@dataclass
class FeatureAccumulator:
    """Streaming accumulator for one user's surface features.

    Posts may arrive in any order; the reduction is permutation-invariant.
    """

    n_posts: int = 0
    rate_caps: float = 0.0
    rate_emoji: float = 0.0
    rate_exclaim: float = 0.0
    n_latin: int = 0
    n_alpha: int = 0
    total_tokens: int = 0
    total_token_chars: int = 0
    counts: Counter = field(default_factory=Counter)

    def add(self, post: RawPost) -> None:
        """Count one unfiltered post from its text. Capitals are counted on
        the raw-case tokens, before lowering."""
        text = post.text
        raw_tokens = _TOKEN_RE.findall(text)
        n_tok = len(raw_tokens)
        if n_tok == 0:
            raise ValueError("cannot accumulate a post with zero tokens")
        tokens = [t.lower() for t in raw_tokens]
        self.n_posts += 1
        self.rate_caps += sum(1 for t in raw_tokens if t[0].isupper()) / n_tok
        self.rate_emoji += len(_EMOJI_RE.findall(text)) / n_tok
        self.rate_exclaim += text.count("!") / n_tok
        self.n_latin += len(_LATIN_RE.findall(text))
        self.n_alpha += sum(map(str.isalpha, text))
        self.total_tokens += n_tok
        self.total_token_chars += sum(len(t) for t in tokens)
        self.counts.update(tokens)

    def finish(self, user_id: str) -> UserSurfaceFeatures:
        if self.n_posts == 0:
            raise ValueError("no posts accumulated for user %r" % user_id)
        return UserSurfaceFeatures(
            user_id=user_id,
            caps_rate=self.rate_caps / self.n_posts,
            emoji_rate=self.rate_emoji / self.n_posts,
            exclaim_rate=self.rate_exclaim / self.n_posts,
            latin_rate=(self.n_latin / self.n_alpha) if self.n_alpha else 0.0,
            avg_post_len=self.total_tokens / self.n_posts,
            avg_word_len=self.total_token_chars / self.total_tokens,
            vocab_size=len(self.counts),
            entropy_bits=shannon_entropy(self.counts),
            n_posts=self.n_posts,
        )


def extract_features(posts) -> list[UserSurfaceFeatures]:
    """Per-user surface features from a RawPost stream, sorted by user_id."""
    accumulators = defaultdict(FeatureAccumulator)
    for post in posts:
        if not should_filter(post)[0]:
            accumulators[post.user_id].add(post)
    return [accumulators[u].finish(u) for u in sorted(accumulators)]
