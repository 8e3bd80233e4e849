"""postscore: predict a scalar outcome from short texts.

Posts are embedded by averaging pretrained word vectors, a linear model maps
post vectors to scores, user scores average post scores, institution scores
average user scores, and inverting the model scores every word in the
vocabulary. A deterministic synthetic-data generator makes the whole pipeline
verifiable at desk scale.
"""

__version__ = "0.1.0"

import importlib

# Each submodule's public names, in __all__ order. A name is imported on first
# access (PEP 562), so `import postscore` loads no numpy and a command loads
# only what it runs.
_SOURCES = {
    "embeddings": ("EmbeddingTable", "post_vectors_matrix"),
    "errors": ("DataFormatError", "PostscoreError", "SingularSystemError"),
    "model": (
        "CurvePoint",
        "LinearModel",
        "TrainingSet",
        "UserPrediction",
        "fit",
        "loo_user_cv",
        "posts_curve",
    ),
    "stats": ("CorrelationReport", "bootstrap_ci", "pearson", "spearman"),
    "synth": ("SynthConfig", "generate"),
    "textproc": (
        "RawPost",
        "TokenizedPost",
        "UserSurfaceFeatures",
        "shannon_entropy",
        "should_filter",
        "tokenize",
    ),
    "tfidf": ("TfidfVocabulary", "build_vocab"),
    "transfer": ("InstitutionScore", "aggregate", "compare"),
    "wordrank": ("WordScore", "project_2d"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
