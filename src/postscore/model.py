"""Linear regression on post vectors, user aggregation, grouped LOOCV.

Fitting minimizes sum((x.w + b - y)^2) + lambda*||w||^2 with an unpenalized
bias, solved by normal equations on centered data with one symmetric
eigendecomposition (numpy): its eigenvalue ratio is the condition number the
fit reports, its smallest eigenvalue decides numerical singularity, and its
vectors give the solution. Grouped LOOCV solves one system per user with a
Cholesky (SPD) factorization: LAPACK's dpotrf and dpotrs (and dtrttp and
dtpttr, which pack and unpack triangles) from scipy's compiled LAPACK module,
bound at LOOCV's first call without importing scipy itself, so no command
loads scipy's Python package.

Leave-one-user-out CV re-solves the same normal equations per user with that
user's rows excluded. The per-user systems are assembled from per-user Gram
partials combined in a fixed user order (block prefix/suffix sums), which is
algebraically the classic downdate X'X - Xu'Xu but has two extra properties:
it never cancels a user's contribution against itself, and the system solved
for user u contains no floating-point trace of u's rows at all, so u's
held-out prediction is bit-identical no matter what u's training rows hold.
Cost stays O(posts*d^2 + users*d^3) instead of a full retrain per user.
Memory is about 3*sqrt(users) + 3 moment matrices, each held as its packed
lower triangle of (d+2)(d+3)/2 float64, plus one full (d+2)^2 GEMM result,
one unpacked system and one block's rows [X, 1, y]: the suffix sums over
blocks of users, the prefix and suffix sums within the current block (its
user moments are recomputed there, never kept for all users; the prefix
buffer also carries the earlier blocks and the ridge diagonal) and the
system solved.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import embeddings
from .embeddings import flat_token_ids, segment_mean
from .errors import SingularSystemError
from .stats import bootstrap_ci, pearson_r

__all__ = [
    "TrainingMeta",
    "LinearModel",
    "TrainingSet",
    "UserPrediction",
    "CurvePoint",
    "fit",
    "word_scores_array",
    "score_tokenized_posts",
    "loo_user_cv",
    "posts_curve",
]

CONDITION_ADVISORY = 1e12
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainingMeta:
    n_posts: int
    n_users: int
    target_mean: float
    target_sd: float
    embedding_fingerprint: str = ""


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    lam: float
    d: int
    training_meta: TrainingMeta

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "d": self.d,
            "lambda": self.lam,
            "weights": [float(w) for w in self.weights],
            "bias": self.bias,
            "training_meta": {
                "n_posts": self.training_meta.n_posts,
                "n_users": self.training_meta.n_users,
                "target_mean": self.training_meta.target_mean,
                "target_sd": self.training_meta.target_sd,
                "embedding_fingerprint": self.training_meta.embedding_fingerprint,
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LinearModel":
        version = payload.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format_version: {version!r}")
        meta = payload["training_meta"]
        weights = np.asarray(payload["weights"], dtype=np.float64)
        if weights.shape != (payload["d"],):
            raise ValueError("weights length does not match d")
        # JSON readers accept NaN and Infinity; a model holding one would
        # score every user as nan or inf.
        numbers = {
            "bias": float(payload["bias"]),
            "lambda": float(payload["lambda"]),
            "target_mean": float(meta["target_mean"]),
            "target_sd": float(meta["target_sd"]),
        }
        bad = [name for name, value in numbers.items() if not math.isfinite(value)]
        if not _all_finite(weights):
            bad.insert(0, "weights")
        if bad:
            raise ValueError(f"non-finite number in {', '.join(bad)}")
        return cls(
            weights=weights,
            bias=numbers["bias"],
            lam=numbers["lambda"],
            d=int(payload["d"]),
            training_meta=TrainingMeta(
                n_posts=int(meta["n_posts"]),
                n_users=int(meta["n_users"]),
                target_mean=numbers["target_mean"],
                target_sd=numbers["target_sd"],
                embedding_fingerprint=str(meta.get("embedding_fingerprint", "")),
            ),
        )


def _all_finite(a: np.ndarray) -> bool:
    # NaN and +-inf carry through min and max, which allocate no mask.
    return a.size == 0 or (math.isfinite(a.min()) and math.isfinite(a.max()))


def group_codes(ids: list) -> tuple[list, np.ndarray]:
    """The sorted distinct ids, and for each item the int64 position of its
    id among them: what ``np.unique(ids, return_inverse=True)`` gives on an
    object array, in about a fifth of its time (4.8 against 26 ms for 40,000
    ids). Codes are taken in order of first appearance in one dict pass,
    then renumbered by sorted id."""
    first: dict = {}
    codes = np.fromiter(
        (first.setdefault(u, len(first)) for u in ids), dtype=np.int64, count=len(ids)
    )
    users = sorted(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[[first[u] for u in users]] = np.arange(len(first))
    return users, rank[codes]


@dataclass
class TrainingSet:
    """Post matrix X (n x d, float64), per-post targets y, and the author of
    each row. Rows with absent post vectors must be excluded before assembly.

    The rows are grouped by author once, at construction: ``users`` lists
    the distinct ids in sorted order, and user i's rows, ascending, are
    ``index[offsets[i]:offsets[i + 1]]``. X keeps post order. Finiteness is
    checked through min and max, with no n x d mask.
    """

    X: np.ndarray
    y: np.ndarray
    groups: np.ndarray  # row -> user_id, dtype=object or str
    users: list = field(init=False, repr=False)
    index: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        self.groups = np.asarray(self.groups)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        n = self.X.shape[0]
        if self.y.shape != (n,) or self.groups.shape != (n,):
            raise ValueError("X, y and groups must agree on the number of rows")
        if not (_all_finite(self.X) and _all_finite(self.y)):
            raise ValueError("training data contains non-finite values")
        self.users, codes = group_codes(self.groups.tolist())
        self.index = np.argsort(codes, kind="stable")
        self.offsets = np.zeros(len(self.users) + 1, dtype=np.int64)
        np.cumsum(np.bincount(codes, minlength=len(self.users)), out=self.offsets[1:])

    @property
    def n_posts(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class UserPrediction:
    user_id: str
    predicted: float
    n_posts_used: int


@dataclass(frozen=True)
class CurvePoint:
    n_posts: int
    r: float
    ci_low: float
    ci_high: float


def _flapack_path():
    """Path of scipy's compiled LAPACK module (``scipy/linalg/_flapack*.so``),
    or None. ``find_spec`` of a top-level package runs none of its code."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    for root in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


@functools.cache
def _lapack():
    """LAPACK's dpotrf, dpotrs, dtrttp and dtpttr, bound at LOOCV's first
    call, once per process.

    The first two are the routines scipy.linalg's cho_factor and cho_solve
    call, taken from the same compiled module; the last two pack and unpack
    the triangles LOOCV holds its moment matrices in. Loading that module by
    file costs ~4 ms and +2.5 MB RSS, where ``import scipy.linalg`` cost
    0.24 s and +24 MB (medians of 10 processes with numpy loaded), most of it
    scipy's array-API shim importing numpy.testing, numpy.f2py and numpy.ma.
    The module is registered as ``postscore._flapack``; no ``scipy`` module
    is imported. An install without the module file falls back to
    scipy.linalg.lapack, which holds the same four routines.
    """
    path = _flapack_path()
    if path is None:
        from scipy.linalg import lapack as flapack
    else:
        # The last name component selects the module's init function.
        loader = importlib.machinery.ExtensionFileLoader(f"{__package__}._flapack", path)
        spec = importlib.util.spec_from_loader(loader.name, loader)
        flapack = importlib.util.module_from_spec(spec)
    return flapack.dpotrf, flapack.dpotrs, flapack.dtrttp, flapack.dtpttr


def _solve_spd(G: np.ndarray, rhs: np.ndarray, held_out: str) -> np.ndarray:
    """Solve G x = rhs for symmetric positive definite G, as
    ``cho_solve(cho_factor(G, lower=True, check_finite=False), rhs,
    check_finite=False)`` does, with the same LAPACK calls and arguments.

    Raises SingularSystemError naming ``held_out`` (LOOCV's held-out user)
    and the leading minor that is not positive definite.
    """
    # Only loo_user_cv solves here: it factors one system per user, and at
    # one thread scipy's dpotrf beats np.linalg.cholesky, whose wheel bundles
    # another OpenBLAS (d+1 = 301: 0.60 vs 1.52 ms, 1001: 16.1 vs 33.4 ms,
    # best of 8-30) and whose factor differs in the last bits. fit solves
    # once, with numpy's eigh.
    dpotrf, dpotrs, _, _ = _lapack()
    factor, info = dpotrf(G, lower=1, clean=0)
    if info > 0:
        raise SingularSystemError(
            f"the LOOCV system that holds out user {held_out!r} is not positive "
            f"definite (leading minor of order {info})"
        )
    x, _ = dpotrs(factor, rhs, lower=1)
    return x


def fit(ts: TrainingSet, lam: float = 0.0, embedding_fingerprint: str = "") -> LinearModel:
    """Least-squares fit of post vectors to targets.

    Requires n_posts >= d+1 or lam > 0. One eigendecomposition G = V diag(s) V'
    of the centered (regularized) Gram matrix serves three purposes. Its
    condition number s_max/s_min (the 2-norm one; inf when s_min <= 0) is
    warned about when it exceeds 1e12. SingularSystemError is raised when
    s_min <= d*eps*s_max, the numerical-rank rule, since no solve of such a
    system means anything. Otherwise w = V((V'r)/s). LOOCV keeps a Cholesky
    solve instead, because it factors one system per user (see _solve_spd).

    The centered Gram matrix and right-hand side r are summed over chunks of
    about 1 MB of rows. Each chunk is centered on the mean of the whole of X
    (and y) before its products are added, so beyond X the fit holds one
    centered chunk and a few d x d matrices, whatever n is. A training
    set of one chunk gives the bits of the unchunked product; a larger one
    differs from it by summation order only.
    """
    if not math.isfinite(lam) or lam < 0:
        raise ValueError("lambda must be finite and >= 0")
    n, d = ts.X.shape
    if n == 0:
        raise ValueError("cannot fit on an empty training set")
    if lam == 0.0 and n < d + 1:
        raise SingularSystemError(f"underdetermined system ({n} posts, {d} dims)")
    x_mean = ts.X.mean(axis=0)
    y_mean = float(ts.y.mean())
    G = np.zeros((d, d), dtype=np.float64)
    r = np.zeros(d, dtype=np.float64)
    step = max(1, embeddings._CHUNK_BYTES // (8 * d))
    for start in range(0, n, step):
        Xc = ts.X[start : start + step] - x_mean
        G += Xc.T @ Xc
        r += Xc.T @ (ts.y[start : start + step] - y_mean)
    if lam > 0.0:
        G[np.diag_indices_from(G)] += lam
    s, V = np.linalg.eigh(G)
    s_min, s_max = float(s[0]), float(s[-1])
    cond = s_max / s_min if s_min > 0.0 else math.inf
    if cond > CONDITION_ADVISORY:
        warnings.warn(
            f"Gram matrix condition estimate {cond:.3g} exceeds {CONDITION_ADVISORY:.0e}; "
            "consider a ridge coefficient lambda > 0",
            RuntimeWarning,
            stacklevel=2,
        )
    if s_min <= d * np.finfo(np.float64).eps * s_max:
        raise SingularSystemError(
            f"Gram matrix is numerically singular (eigenvalues {s_min:.3g} to {s_max:.3g}); "
            "consider a ridge coefficient lambda > 0"
        )
    w = V @ ((V.T @ r) / s)
    bias = y_mean - float(x_mean @ w)
    meta = TrainingMeta(
        n_posts=n,
        n_users=len(ts.users),
        target_mean=y_mean,
        target_sd=float(ts.y.std()),
        embedding_fingerprint=embedding_fingerprint,
    )
    return LinearModel(weights=w, bias=bias, lam=lam, d=d, training_meta=meta)


def word_scores_array(model: LinearModel, table) -> np.ndarray:
    """Scores ``vectors @ w + b`` for every table row at once (float64).

    Rows are scored about 1 MB of float64 at a time (``EmbeddingTable.dot``),
    so the table is never copied whole, and the scores are bit-identical for
    any chunking.
    """
    if table.dim != model.d:
        raise ValueError(f"model dimension {model.d} does not match table dim {table.dim}")
    scores = table.dot(model.weights)
    scores += model.bias
    return scores


def score_tokenized_posts(model: LinearModel, table, token_lists, word_scores=None):
    """Scores for already-tokenized posts, the high-throughput path.

    Exploits linearity: a post's score is the mean of its matched words'
    scores, so per-word scores are computed once (``word_scores_array``) and
    each post needs only a gather and a segment mean. Posts with no
    in-vocabulary token receive the training target mean. Callers scoring
    many batches can compute ``word_scores`` once and pass it in.

    Returns (scores, n_matched) as float64/int64 arrays.
    """
    if word_scores is None:
        word_scores = word_scores_array(model, table)
    flat, n_matched, _ = flat_token_ids(table, token_lists)
    scores = np.empty(len(token_lists), dtype=np.float64)
    segment_mean(word_scores[flat], n_matched, scores)
    scores[n_matched == 0] = model.training_meta.target_mean
    return scores, n_matched


def loo_user_cv(ts: TrainingSet, lam: float = 0.0, sample=None) -> list[UserPrediction]:
    """Grouped leave-one-user-out predictions, one per user in user order
    (sorted by id unless ``sample`` orders them otherwise).

    For each user the augmented normal equations are re-assembled from the
    other users' Gram partials (fixed summation order) and re-solved; the
    result matches naive per-user retraining to solver precision.

    ``sample`` restricts the cross-validation to some of ts's rows without
    copying them: a triple (users, rows, offsets) in the layout of
    ``(ts.users, ts.index, ts.offsets)``, user i's rows being
    ``rows[offsets[i]:offsets[i + 1]]``. The default is all of ts.
    """
    if not math.isfinite(lam) or lam < 0:
        raise ValueError("lambda must be finite and >= 0")
    users, rows, offsets = (ts.users, ts.index, ts.offsets) if sample is None else sample
    if len(users) < 2:
        raise ValueError("grouped LOOCV requires at least 2 users")
    d = ts.d
    d1, d2 = d + 1, d + 2
    U = len(users)
    # Each sum here is the moment matrix of rows [X, 1, y], held as its
    # packed lower triangle: row i's entries 0..i follow row i - 1's, so the
    # augmented system's (d+1) x (d+1) matrix is the first n_sys entries and
    # its right-hand side the next d+1 (row d+1 up to its diagonal). The
    # packed rows of a C-order symmetric F are LAPACK's "U" column packing
    # of F.T, so dtrttp packs a GEMM result and dtpttr unpacks a system for
    # dpotrf, which reads only its lower triangle. Users go in blocks of
    # m = ceil(sqrt(U)). Held at once: the block suffix sums (ceil(U/m) + 1),
    # the in-block prefix and suffix sums (m + 1 each) and the system being
    # solved, so about 3*sqrt(U) + 3 triangles of (d+2)(d+3)/2 float64, plus
    # one full (d+2)^2 GEMM result, one unpacked system and one block's rows,
    # whatever U. No user's moment matrix outlives its block.
    _, _, dtrttp, dtpttr = _lapack()
    n_sys = d1 * d2 // 2
    n_packed = n_sys + d2
    m = math.isqrt(U - 1) + 1
    blocks = [users[s : s + m] for s in range(0, U, m)]
    full = np.empty((d2, d2), dtype=np.float64)

    def block_rows(b):
        """Block b's rows [X, 1, y]; its user j has rows bounds[j]:bounds[j + 1]."""
        bounds = offsets[b * m : (b + 1) * m + 1]
        idx = rows[bounds[0] : bounds[-1]]
        Z = np.empty((idx.size, d2), dtype=np.float64)
        Z[:, :d] = ts.X[idx]
        Z[:, d] = 1.0
        Z[:, d1] = ts.y[idx]
        return Z, (bounds - bounds[0]).tolist()

    def moments(Z, out):
        """Z'Z into ``out``, packed."""
        np.matmul(Z.T, Z, out=full)
        out[:] = dtrttp(full.T, uplo="U")[0]

    # Pass 1: suffix[b] sums blocks b.. ; one GEMM per block.
    suffix = np.zeros((len(blocks) + 1, n_packed), dtype=np.float64)
    for b in range(len(blocks) - 1, -1, -1):
        Z, _ = block_rows(b)
        moments(Z, suffix[b])
        suffix[b] += suffix[b + 1]

    # Pass 2: per block, recompute the user moments into the in-block suffix
    # buffer, then turn it into prefix sums before[j] (the ridge diagonal,
    # earlier blocks and the block's users < j) and suffix sums after[j]
    # (the block's users >= j and later blocks). User j's system is
    # before[j] + after[j + 1], one add, so j's own rows never enter it.
    # before[0] carries the running prefix from block to block.
    before = np.zeros((m + 1, n_packed), dtype=np.float64)
    after = np.empty((m + 1, n_packed), dtype=np.float64)
    G = np.empty(n_packed, dtype=np.float64)
    ridge = np.arange(d)
    before[0, ridge * (ridge + 3) // 2] = lam  # row i's diagonal: i(i+1)/2 + i
    predictions = []
    for b, block in enumerate(blocks):
        Z, bounds = block_rows(b)
        k = len(block)
        after[k] = suffix[b + 1]
        for j in range(k):
            moments(Z[bounds[j] : bounds[j + 1]], after[j])
            np.add(before[j], after[j], out=before[j + 1])
        for j in range(k - 1, -1, -1):
            after[j] += after[j + 1]
        for j, u in enumerate(block):
            np.add(before[j], after[j + 1], out=G)
            theta = _solve_spd(dtpttr(d1, G[:n_sys], uplo="U")[0].T, G[n_sys : n_sys + d1], u)
            scores = Z[bounds[j] : bounds[j + 1], :d] @ theta[:d] + theta[d]
            predictions.append(UserPrediction(u, float(scores.mean()), bounds[j + 1] - bounds[j]))
        before[0] = before[k]
    return predictions


def posts_curve(
    ts: TrainingSet,
    n_max: int = 20,
    B: int = 1000,
    level: float = 0.90,
    seed: int = 0,
    lam: float = 0.0,
) -> list[CurvePoint]:
    """Predictive power as a function of posts per user.

    Restricted to users with at least n_max posts. For each N in 1..n_max,
    samples N posts per user without replacement (one seeded draw per
    (seed, N)), recomputes grouped LOOCV on the sample, and reports Pearson r
    between held-out user predictions and true scores with a percentile
    bootstrap interval over users. Byte-deterministic for a fixed seed.

    Each sample is a row selection that LOOCV reads from ts itself; no
    sampled copy of X is made.
    """
    eligible = np.flatnonzero(np.diff(ts.offsets) >= n_max)
    if not eligible.size:
        raise ValueError(f"no user has at least {n_max} posts")
    users = [ts.users[i] for i in eligible]
    user_rows = [ts.index[ts.offsets[i] : ts.offsets[i + 1]] for i in eligible]
    truth = ts.y[ts.index[ts.offsets[eligible]]].tolist()
    points = []
    for n_sel in range(1, n_max + 1):
        rng = np.random.default_rng((seed, n_sel))
        kept = np.concatenate(
            [np.sort(rng.choice(rows, size=n_sel, replace=False)) for rows in user_rows]
        )
        offsets = np.arange(len(users) + 1, dtype=np.int64) * n_sel
        preds = loo_user_cv(ts, lam=lam, sample=(users, kept, offsets))
        pairs = [(p.predicted, t) for p, t in zip(preds, truth)]
        r = pearson_r([a for a, _ in pairs], [b for _, b in pairs])
        ci_low, ci_high = bootstrap_ci(
            pairs,
            lambda sample: pearson_r([a for a, _ in sample], [b for _, b in sample]),
            B=B,
            level=level,
            seed=(seed, n_sel, 1),
        )
        points.append(CurvePoint(n_posts=n_sel, r=r, ci_low=ci_low, ci_high=ci_high))
    return points
