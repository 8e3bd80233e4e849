"""Linear regression on post vectors, user aggregation, grouped LOOCV.

Fitting minimizes sum((x.w + b - y)^2) + lambda*||w||^2 with an unpenalized
bias, solved by normal equations on centered data with one symmetric
eigendecomposition (numpy): its eigenvalue ratio is the condition number the
fit reports, its smallest eigenvalue decides numerical singularity, and its
vectors give the solution. Grouped LOOCV factors one base system per group
of users with a Cholesky (SPD) factorization: LAPACK's dpotrf, dpotrs and
dtrtrs (and dtrttp and dtpttr, which pack and unpack triangles), bound by
ctypes at LOOCV's first call from the OpenBLAS numpy itself loaded
(``_Lapack``), so fit and LOOCV run on one library.

Leave-one-user-out CV solves, for each user, the normal equations of every
other user's rows. Users go in outer blocks of B = ceil(sqrt(U)), each cut
into groups of m users (``_group_size``). One routine, ``span`` in
``loo_user_cv``, builds the prefix and suffix moment sums over a run of
groups and solves each group from its base, the ridge plus every other
group's moments: one add of the sums before and after it, so no row is
ever subtracted. The base is factored once, and each of the group's users
adds the group's other rows back by Woodbury in an r x r system, r being
the group's rows; u's targets never enter u's system, so u's prediction is
bit-identical whatever they hold. Cost is O(posts*d^2 + (U/m)*d^3), plus
for m > 1 O(posts*d^2) of triangular solves and r^3 a user.

A group of several users is routed by its row counts first, before
anything is factored: it is declined when its step costs more flops than
one system per user (``_group_flops``; any r >= d does) or when it
leaves too few rows outside it for a regular base: at most d at lambda = 0,
and none at any lambda, since the bias carries no ridge. Then
``_group_predictions`` declines it numerically: dpotrf fails, or K has a
diagonal entry above ``_MAX_LEVERAGE``. ``span`` redoes a declined
group with groups of one user between the same sums, so each user's
system is m = 1's adds in m = 1's order, and the first user whose own
system is not positive definite is named.

Each moment matrix of rows [X, 1, y] is held as a packed lower triangle of
(d+2)(d+3)/2 float64. Held at once are the block suffix sums (ceil(U/B) +
1), the current block's group prefix and suffix sums (ceil(B/m) + 1 each;
the prefix carries the earlier blocks and the ridge diagonal) and the base:
at most about 3*sqrt(U) + 3 triangles, plus m + 1 each side while a group
is redone. Besides them: one (d+2)^2 GEMM result, one unpacked system and
its factor, one block's rows and a group's V and K ((d+1) x r and r x r,
r < d).
"""

from __future__ import annotations

import ctypes
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import embeddings
from .dataio import UserPrediction
from .embeddings import flat_token_ids, segment_mean
from .errors import SingularSystemError, UnsupportedBuildError

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
# Largest K_ii = w_i' A^-1 w_i that a LOOCV group's Woodbury step accepts
# (see _group_predictions). The step's rounding grows with K. Near
# rank-deficient bases (groups of 9 single-post users at d=60, 70-72
# users, lambda=0, 90 runs), K up to 1.6e7 left errors up to 2.3e-8
# against a least-squares refit, and K under 2^13 = eps^-1/4 stayed within
# 8e-11, as one system per user does; the bench shapes' K stays under 5.
_MAX_LEVERAGE = np.finfo(np.float64).eps ** -0.25
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
class CurvePoint:
    n_posts: int
    r: float
    ci_low: float
    ci_high: float


# The Fortran arguments of each routine LOOCV calls: c a character, i an
# integer, a a float64 array. gfortran passes each character's length after
# the last argument.
_LAPACK_ARGS = {
    "dpotrf": "ciaii",
    "dpotrs": "ciiaiaii",
    "dtrtrs": "ccciiaiaii",
    "dtrttp": "ciaiai",
    "dtpttr": "ciaaii",
}


def _address(a: np.ndarray) -> int:
    if a.dtype != np.float64 or not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("a LAPACK array must be writeable float64 in Fortran order")
    return a.ctypes.data


def _order(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"a LAPACK system must be square, not {a.shape}")
    return a.shape[0]


def _columns(b: np.ndarray, n: int) -> int:
    if b.shape[0] != n or b.ndim > 2:
        raise ValueError(f"a right-hand side of {b.shape} does not fit a system of order {n}")
    return 1 if b.ndim == 1 else b.shape[1]


def _packed_order(packed: np.ndarray, n: int) -> int:
    if packed.shape != (n * (n + 1) // 2,):
        raise ValueError(f"{packed.shape} does not hold a packed triangle of order {n}")
    return n


def _info(name: str, info) -> int:
    """A routine's INFO, raising when LAPACK rejected an argument (INFO < 0)."""
    if info.value < 0:
        raise ValueError(f"{name}: LAPACK rejects argument {-info.value}")
    return info.value


class _Lapack:
    """LOOCV's LAPACK routines, called through ctypes from the OpenBLAS that
    numpy's own linalg extension links, so a command maps one BLAS library.
    dpotrf, dpotrs and dtrtrs factor, solve and apply L^-1 through the
    lower triangle; dtrttp and dtpttr pack and unpack the upper one, as
    LOOCV holds its moment matrices. Each routine writes its result into an
    array the caller passes, float64 in Fortran order, whose layout and
    shape are checked first. ctypes releases the GIL for each call.

    numpy's wheels bundle scipy-openblas, whose symbols are scipy_<name>_64_
    with 64-bit integers (USE64BITINT in its configuration) and
    scipy_<name>_ with 32-bit ones. numpy's build config names the build;
    on any other, or when a symbol is missing, UnsupportedBuildError names
    it.
    """

    def __init__(self):
        build = np.__config__.CONFIG["Build Dependencies"]["lapack"]
        ilp64 = "USE64BITINT" in build.get("openblas configuration", "")
        label = f"{build.get('name')} {build.get('version')} ({'ILP64' if ilp64 else 'LP64'})"
        self._int = ctypes.c_int64 if ilp64 else ctypes.c_int32
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        kinds = {"c": ctypes.c_char_p, "i": ctypes.POINTER(self._int), "a": ctypes.c_void_p}
        self._routines = {}
        for name, args in _LAPACK_ARGS.items():
            symbol = f"scipy_{name}{'_64' if ilp64 else ''}_"
            routine = getattr(lib, symbol, None) if build.get("name") == "scipy-openblas" else None
            if routine is None:
                raise UnsupportedBuildError(
                    f"numpy's LAPACK build, {label}, has no {symbol}; LOOCV calls "
                    "LAPACK from the scipy-openblas that numpy's wheels bundle"
                )
            routine.argtypes = [kinds[k] for k in args] + [ctypes.c_size_t] * args.count("c")
            routine.restype = None
            self._routines[name] = routine

    def _int_ref(self, value: int):
        return ctypes.byref(self._int(value))

    def dpotrf(self, a: np.ndarray) -> int:
        """Factor a = LL' in place, L in a's lower triangle; a's upper
        triangle is neither read nor written. Returns 0, or the order of the
        first leading minor that is not positive definite."""
        n, info = self._int_ref(_order(a)), self._int()
        self._routines["dpotrf"](b"L", n, _address(a), n, ctypes.byref(info), 1)
        return _info("dpotrf", info)

    def dpotrs(self, factor: np.ndarray, b: np.ndarray) -> None:
        """Overwrite b with (LL')^-1 b, L being dpotrf's factor."""
        order = _order(factor)
        n, nrhs, info = self._int_ref(order), self._int_ref(_columns(b, order)), self._int()
        self._routines["dpotrs"](b"L", n, nrhs, _address(factor), n, _address(b), n, ctypes.byref(info), 1)
        _info("dpotrs", info)

    def dtrtrs(self, factor: np.ndarray, b: np.ndarray) -> None:
        """Overwrite b with L^-1 b, L being dpotrf's factor."""
        order = _order(factor)
        n, nrhs, info = self._int_ref(order), self._int_ref(_columns(b, order)), self._int()
        self._routines["dtrtrs"](b"L", b"N", b"N", n, nrhs, _address(factor), n, _address(b), n,
                                 ctypes.byref(info), 1, 1, 1)
        _info("dtrtrs", info)

    def dtrttp(self, a: np.ndarray, packed: np.ndarray) -> None:
        """Pack a's upper triangle, column by column, into ``packed``."""
        n, info = self._int_ref(_packed_order(packed, _order(a))), self._int()
        self._routines["dtrttp"](b"U", n, _address(a), n, _address(packed), ctypes.byref(info), 1)
        _info("dtrttp", info)

    def dtpttr(self, packed: np.ndarray, a: np.ndarray) -> None:
        """Unpack ``packed`` into a's upper triangle, as dtrttp packed it."""
        n, info = self._int_ref(_packed_order(packed, _order(a))), self._int()
        self._routines["dtpttr"](b"U", n, _address(packed), _address(a), n, ctypes.byref(info), 1)
        _info("dtpttr", info)


@functools.cache
def _lapack() -> _Lapack:
    """LOOCV's LAPACK binding, made at LOOCV's first call, once per process."""
    return _Lapack()


def _not_positive_definite(held_out: str, order: int) -> SingularSystemError:
    return SingularSystemError(
        f"the LOOCV system that holds out user {held_out!r} is not positive "
        f"definite (leading minor of order {order})"
    )


def _solve_spd(G: np.ndarray, rhs: np.ndarray, held_out: str) -> np.ndarray:
    """Solve G x = rhs for symmetric positive definite G, reading G's lower
    triangle, as ``cho_solve((np.linalg.cholesky(G), True), rhs)`` does,
    with the same LAPACK calls on numpy's library. G and rhs are copied,
    not overwritten.

    Raises SingularSystemError naming ``held_out`` (LOOCV's held-out user)
    and the leading minor that is not positive definite.
    """
    # LOOCV solves here each user's r x r system I + K_oo; its group bases
    # are factored by the same dpotrf in _group_predictions, which keeps the
    # factor for dtrtrs. fit solves once, with numpy's eigh.
    lapack = _lapack()
    factor = np.array(G, dtype=np.float64, order="F")
    info = lapack.dpotrf(factor)
    if info > 0:
        raise _not_positive_definite(held_out, info)
    x = np.array(rhs, dtype=np.float64, order="F")
    lapack.dpotrs(factor, x)
    return x


def fit(ts: TrainingSet, lam: float = 0.0, embedding_fingerprint: str = "") -> LinearModel:
    """Least-squares fit of post vectors to targets.

    Requires n_posts >= d+1 or lam > 0. One eigendecomposition G = V diag(s) V'
    of the centered (regularized) Gram matrix serves three purposes. Its
    condition number s_max/s_min (the 2-norm one; inf when s_min <= 0) is
    warned about when it exceeds 1e12. SingularSystemError is raised when
    s_min <= d*eps*s_max, the numerical-rank rule, since no solve of such a
    system means anything. Otherwise w = V((V'r)/s). LOOCV keeps Cholesky
    solves instead, because it factors one base per group of users (see
    _group_predictions).

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
    if d == 0:
        raise ValueError("cannot fit on a training set with no columns")
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
        raise SingularSystemError(f"Gram matrix is numerically singular (eigenvalues {s_min:.3g} to {s_max:.3g})")
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


def score_tokenized_posts(model: LinearModel, table, posts, word_scores=None):
    """Scores for already-tokenized posts, the high-throughput path.

    ``posts`` is an ``embeddings.TokenIds`` (a ``pipeline.Corpus`` is one) or
    token lists. Exploits linearity: a post's score is the mean of its
    matched words' scores, so per-word scores are computed once
    (``word_scores_array``) and each post needs only a gather and a segment
    mean. Posts with no in-vocabulary token receive the training target
    mean. Callers scoring many batches can compute ``word_scores`` once and
    pass it in.

    Returns (scores, n_matched) as float64/int64 arrays.
    """
    if word_scores is None:
        word_scores = word_scores_array(model, table)
    flat, n_matched, _ = flat_token_ids(table, posts)
    scores = np.empty(n_matched.size, dtype=np.float64)
    segment_mean(word_scores[flat], n_matched, scores)
    scores[n_matched == 0] = model.training_meta.target_mean
    return scores, n_matched


def _group_flops(d: int, rows) -> float:
    """Flops LOOCV spends on a group of users holding ``rows`` rows each.

    One user's system costs its factorization, d^3/3. A group of several
    users with r rows in all costs its base's factorization, d^3/3, V
    (d^2 r), K (d r^2), each user u's factorization of I + K_oo
    ((r - rows[u])^3 / 3) and a flat 115,000 a user for the r x r step's
    dozen array and LAPACK calls: 17 us at 0.15 ns a flop, both fitted by
    least squares to one-core timings of LOOCV on a grid of d in {20, 50,
    100, 150, 200, 300} x rows per user in {1, 2, 5, 10, 20} at U=300.
    """
    if len(rows) == 1:
        return d**3 / 3
    r = sum(rows)
    steps = sum((r - p) ** 3 for p in rows) / 3 + 115_000 * len(rows)
    return d**3 / 3 + d * d * r + d * r * r + steps


def _group_size(d: int, n_users: int, rows_per_user: float) -> int:
    """Users per LOOCV group: the m whose groups of m users of
    ``rows_per_user`` rows cost the fewest flops a user (``_group_flops``).

    m ranges over ceil(B/g) for g = 1..B, B = ceil(sqrt(U)) being LOOCV's
    outer block, so the groups split a block about evenly. Small d or many
    rows a user give m = 1: d=20 at any p, d=50 with 20 posts a user and
    d=100 with 10, where no m > 1 measured faster end to end. At 300 users
    and d=200, 10 posts a user give m = 6, and 1 or 2 posts a user (the
    first curve points) the whole block of 18. The rule reads the mean
    rows a user; loo_user_cv checks each group's own rows.
    """
    B = math.isqrt(n_users - 1) + 1
    return min(
        sorted({-(-B // g) for g in range(1, B + 1)}),
        key=lambda m: _group_flops(d, [rows_per_user] * m) / m,
    )


def _group_predictions(Z, bounds, names, G, out) -> bool:
    """Append the held-out predictions of a group of users to ``out``.

    Z holds the group's rows [X, 1, y], user j's being Z[bounds[j]:
    bounds[j + 1]]; G is the group's base, the ridge plus every other
    group's moments, packed. Returns False, appending nothing, when a group
    of several users is declined numerically: its base is not positive
    definite, or K has a diagonal entry above ``_MAX_LEVERAGE``. For one
    user it raises SingularSystemError naming the user when the base is not
    positive definite.

    With A the base's (d+1)^2 system, c its right-hand side and W = [X, 1]
    the group's rows, one Cholesky factor A = LL' serves every user: theta =
    A^-1 c gives e = W theta, and V = L^-1 W' gives K = V'V = W A^-1 W'. For
    user u, whose group has other rows o, the system with o's rows added is
    A + W_o'W_o with right-hand side c + W_o'y_o, and by Woodbury u's
    predictions are e_u + K_uo (I + K_oo)^-1 (y_o - e_o): an r x r solve,
    r being the group's row count, and no (d+1)^2 one. (These are V_u's,
    with q = L^-1 c, t = q + V_o y_o and s = t - V_o (I + K_oo)^-1 V_o't,
    rewritten through e = V'q so that a user costs O(r^3), not O(d r).)
    Only u's features enter it; u's targets are read for the other users
    only. A group of one user has no o: its predictions are W theta, one
    factorization and one solve of its own system.
    """
    d1 = Z.shape[1] - 1
    lapack = _lapack()
    n_sys = d1 * (d1 + 1) // 2
    unpacked = np.empty((d1, d1), order="F")
    lapack.dtpttr(G[:n_sys], unpacked)
    # dtpttr fills the upper triangle, and dpotrf factors the lower one, as
    # np.linalg.cholesky does: its upper-triangle route rounds otherwise.
    factor = np.asfortranarray(unpacked.T)
    info = lapack.dpotrf(factor)
    if info > 0:
        if len(names) > 1:
            return False
        raise _not_positive_definite(names[0], info)
    theta = G[n_sys : n_sys + d1].copy()
    lapack.dpotrs(factor, theta)
    e = Z[:, : d1 - 1] @ theta[:-1] + theta[-1]
    r = e.size
    if len(names) > 1:
        # Solved in a copy: a group declined below is redone from Z's rows.
        V = np.array(Z[:, :d1].T, order="F")
        lapack.dtrtrs(factor, V)
        K = V.T @ V
        # A base that is nearly singular (d + 1 rows outside the group at
        # lambda = 0, or fewer under a tiny ridge) can still pass dpotrf on a
        # pivot of rounding size; K then holds entries up to 1/eps, and the
        # step would amplify rounding.
        if K.diagonal().max() > _MAX_LEVERAGE:
            return False
        residual = Z[:, d1] - e
    for j, u in enumerate(names):
        a, b = bounds[j], bounds[j + 1]
        scores = e[a:b]
        if b - a < r:
            o = np.r_[0:a, b:r]
            inner = K[np.ix_(o, o)]
            inner.flat[:: o.size + 1] += 1.0
            scores = scores + K[a:b, o] @ _solve_spd(inner, residual[o], u)
        out.append(UserPrediction(u, float(scores.mean()), b - a))
    return True


def loo_user_cv(ts: TrainingSet, lam: float = 0.0, sample=None) -> list[UserPrediction]:
    """Grouped leave-one-user-out predictions, one per user in user order
    (sorted by id unless ``sample`` orders them otherwise).

    Each user's prediction is that of the ridge fit to every other user's
    rows, applied to the user's own rows and averaged; it matches naive
    per-user retraining to solver precision. The groups, their route and
    what is held are in the module docstring.

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
    n_rows = offsets[-1] - offsets[0]
    # A packed triangle's row i holds entries 0..i after row i - 1's, so the
    # augmented system's (d+1) x (d+1) matrix is its first (d+1)(d+2)/2
    # entries and its right-hand side the next d+1 (row d+1 up to its
    # diagonal). The packed rows of a C-order symmetric F are LAPACK's "U"
    # column packing of F.T, so dtrttp packs a GEMM result and dtpttr
    # unpacks a system for dpotrf.
    lapack = _lapack()
    n_packed = d1 * d2 // 2 + d2
    B = math.isqrt(U - 1) + 1
    m = _group_size(d, U, n_rows / U)
    full = np.empty((d2, d2), dtype=np.float64)
    G = np.empty(n_packed, dtype=np.float64)
    predictions = []

    def block_rows(b):
        """Block b's rows [X, 1, y]; its user j has rows bounds[j]:bounds[j + 1]."""
        bounds = offsets[b * B : (b + 1) * B + 1]
        idx = rows[bounds[0] : bounds[-1]]
        Z = np.empty((idx.size, d2), dtype=np.float64)
        Z[:, :d] = ts.X[idx]
        Z[:, d] = 1.0
        Z[:, d1] = ts.y[idx]
        return Z, (bounds - bounds[0]).tolist()

    def moments(Z, out):
        """Z'Z into ``out``, packed."""
        np.matmul(Z.T, Z, out=full)
        lapack.dtrttp(full.T, out)

    def span(Z, cuts, names, size, before, after):
        """Predictions of the users ``names``, user j's rows being
        Z[cuts[j]:cuts[j + 1]], in groups of ``size`` users. before[0] and
        after[k], k being the number of groups, hold the sums before and
        after Z; group i's base is before[i] + after[i + 1]."""
        starts = range(0, len(names), size)
        ends = [*starts[1:], len(names)]
        for i, (s, e) in enumerate(zip(starts, ends)):
            moments(Z[cuts[s] : cuts[e]], after[i])
            np.add(before[i], after[i], out=before[i + 1])
        for i in range(len(starts) - 1, -1, -1):
            after[i] += after[i + 1]
        for i, (s, e) in enumerate(zip(starts, ends)):
            group, Zg = names[s:e], Z[cuts[s] : cuts[e]]
            bounds = [c - cuts[s] for c in cuts[s : e + 1]]
            sizes = [b - a for a, b in zip(bounds, bounds[1:])]
            # Row counts decline a group before anything is factored: a step
            # dearer than one system per user, or a base of at most d rows
            # for d + 1 unknowns at lambda = 0, or of no row at any lambda
            # (the ridge leaves the bias's pivot at the row count).
            by_count = len(group) > 1 and (
                n_rows - len(Zg) <= (d if lam == 0 else 0)
                or _group_flops(d, sizes) > len(group) * _group_flops(d, sizes[:1])
            )
            if not by_count:
                np.add(before[i], after[i + 1], out=G)
                if _group_predictions(Zg, bounds, group, G, predictions):
                    continue
            one_before = np.empty((len(group) + 1, n_packed), dtype=np.float64)
            one_after = np.empty_like(one_before)
            one_before[0], one_after[-1] = before[i], after[i + 1]
            span(Zg, bounds, group, 1, one_before, one_after)

    # suffix[b] sums blocks b.., one GEMM per block; before[0] carries the
    # ridge diagonal and then the blocks done so far.
    n_blocks = -(-U // B)
    suffix = np.zeros((n_blocks + 1, n_packed), dtype=np.float64)
    for b in range(n_blocks - 1, -1, -1):
        Z, _ = block_rows(b)
        moments(Z, suffix[b])
        suffix[b] += suffix[b + 1]
    before = np.zeros((-(-B // m) + 1, n_packed), dtype=np.float64)
    after = np.empty_like(before)
    ridge = np.arange(d)
    before[0, ridge * (ridge + 3) // 2] = lam  # row i's diagonal: i(i+1)/2 + i
    for b in range(n_blocks):
        Z, bounds = block_rows(b)
        names = users[b * B : (b + 1) * B]
        k = -(-len(names) // m)
        after[k] = suffix[b + 1]
        span(Z, bounds, names, m, before, after)
        before[0] = before[k]
    del span  # it refers to itself; left, that cycle holds full and G until gc runs
    return predictions


def __getattr__(name: str):
    """``bootstrap_ci``, imported from ``stats`` on first access, so that only
    ``posts_curve`` loads ``stats``. The name is then bound in this module,
    where ``posts_curve`` looks it up, so a caller can replace it (as
    bench/layers.py does to time the bootstrap)."""
    if name != "bootstrap_ci":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .stats import bootstrap_ci

    globals()[name] = bootstrap_ci
    return bootstrap_ci


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
    from .stats import pearson_r

    eligible = np.flatnonzero(np.diff(ts.offsets) >= n_max)
    if not eligible.size:
        raise ValueError(f"no user has at least {n_max} posts")
    bootstrap = globals().get("bootstrap_ci") or __getattr__("bootstrap_ci")
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
        ci_low, ci_high = bootstrap(
            pairs,
            lambda sample: pearson_r([a for a, _ in sample], [b for _, b in sample]),
            B=B,
            level=level,
            seed=(seed, n_sel, 1),
        )
        points.append(CurvePoint(n_posts=n_sel, r=r, ci_low=ci_low, ci_high=ci_high))
    return points
