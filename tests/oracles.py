"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths they verify: the regression oracle is
plain gradient descent on the raw loss, the p-value oracle goes through
mpmath's incomplete beta at 50 digits, and the post and word scores look each
token up in ``table.vocab`` on its own and take one plain mean and dot
product. ``read_vec`` parses a .vec file value by value with Python's
``float()``. ``loo_user_cv_full`` is grouped LOOCV as it was first written, with
every moment matrix held whole, solved through scipy.linalg's Cholesky
routines. (The naive leave-one-user-out checks retrain from scratch per user
in the tests themselves.) ``noise_for_ceiling`` inverts synth's analytic
correlation ceiling, so a test can ask for a dataset with a given one.
"""

import math


import mpmath as mp
import numpy as np

from postscore.synth import SCORE_SD


def noise_for_ceiling(r_star: float) -> float:
    """noise_sd that places the analytic correlation ceiling at r_star."""
    if not (0.0 < r_star <= 1.0):
        raise ValueError("r_star must be in (0, 1]")
    return SCORE_SD * np.sqrt(1.0 / (r_star * r_star) - 1.0)


def gd_fit(X, y, lam=0.0, tol=1e-10, max_iter=500_000):
    """Minimize sum((x.w + b - y)^2) + lam*||w||^2 by plain gradient descent.

    Constant step 1/L with L the largest Hessian eigenvalue; runs until the
    gradient inf-norm drops below tol. Returns (w, b).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    Z = np.hstack([X, np.ones((n, 1))])
    G = Z.T @ Z
    penalty = np.zeros(d + 1)
    penalty[:d] = lam
    hessian = 2.0 * (G + np.diag(penalty))
    L = float(np.linalg.eigvalsh(hessian)[-1])
    step = 1.0 / L
    c = Z.T @ y
    theta = np.zeros(d + 1)
    for _ in range(max_iter):
        grad = 2.0 * (G @ theta + penalty * theta - c)
        if np.abs(grad).max() < tol:
            return theta[:d], float(theta[d])
        theta -= step * grad
    raise AssertionError("gradient descent did not converge")


def t_test_p_oracle(r, n, dps=50):
    """Two-sided t-test p-value for a correlation, at dps decimal digits."""
    with mp.workdps(dps):
        df = n - 2
        t2 = mp.mpf(r) ** 2 * df / (1 - mp.mpf(r) ** 2)
        x = df / (df + t2)
        return float(mp.betainc(mp.mpf(df) / 2, mp.mpf(1) / 2, 0, x, regularized=True))


def betainc_oracle(a, b, x, dps=50):
    with mp.workdps(dps):
        return float(mp.betainc(mp.mpf(a), mp.mpf(b), 0, mp.mpf(x), regularized=True))


def post_vector(table, tokens):
    """Float64 mean of the rows of the tokens found in ``table.vocab``, each
    occurrence counted; None when no token is found."""
    rows = [table.vocab[t] for t in tokens if t in table.vocab]
    if not rows:
        return None
    return table.vectors[rows].astype(np.float64).mean(axis=0)


def read_vec(path):
    """(words, float32 vectors) of a well-formed .vec file, each value parsed
    by ``float()`` and rounded to float32."""
    with open(path, "r", encoding="utf-8") as f:
        count, dim = map(int, f.readline().split())
        rows = [line.rstrip().split(" ") for line in f]
    assert len(rows) == count and all(len(r) == dim + 1 for r in rows)
    vectors = np.array([[float(v) for v in r[1:]] for r in rows], dtype=np.float64)
    return [r[0] for r in rows], vectors.astype(np.float32).reshape(count, dim)


def predict_post(model, vector):
    """w.x + b for one post vector."""
    return float(model.weights @ np.asarray(vector, dtype=np.float64)) + model.bias


def score_word(model, table, word):
    """w.v + b for the word's row, or None when ``table.vocab`` lacks it."""
    idx = table.vocab.get(word)
    if idx is None:
        return None
    return predict_post(model, table.vectors[idx])


def loo_user_cv_full(ts, lam=0.0, sample=None):
    """Grouped leave-one-user-out UserPredictions, with each moment matrix
    of rows [X, 1, y] held as a full (d+2) x (d+2) float64 array.

    The blocks, the summation order and the own-rows rule are those of
    ``postscore.model.loo_user_cv``: users go in blocks of ceil(sqrt(U));
    suffix sums over blocks, then per block prefix sums ``before`` (ridge
    diagonal, earlier blocks, earlier users) and suffix sums ``after``;
    user j's system is ``before[j] + after[j + 1]``. Each system is solved
    with ``cho_factor(lower=True)`` and ``cho_solve``.
    """
    from scipy.linalg import cho_factor, cho_solve

    from postscore.model import UserPrediction

    users, rows, offsets = (ts.users, ts.index, ts.offsets) if sample is None else sample
    d = ts.d
    d1, d2 = d + 1, d + 2
    U = len(users)
    m = math.isqrt(U - 1) + 1
    blocks = [users[s : s + m] for s in range(0, U, m)]

    def block_rows(b):
        bounds = offsets[b * m : (b + 1) * m + 1]
        idx = rows[bounds[0] : bounds[-1]]
        Z = np.empty((idx.size, d2), dtype=np.float64)
        Z[:, :d] = ts.X[idx]
        Z[:, d] = 1.0
        Z[:, d1] = ts.y[idx]
        return Z, (bounds - bounds[0]).tolist()

    suffix = np.zeros((len(blocks) + 1, d2, d2), dtype=np.float64)
    for b in range(len(blocks) - 1, -1, -1):
        Z, _ = block_rows(b)
        np.matmul(Z.T, Z, out=suffix[b])
        suffix[b] += suffix[b + 1]

    before = np.zeros((m + 1, d2, d2), dtype=np.float64)
    after = np.empty((m + 1, d2, d2), dtype=np.float64)
    G = np.empty((d2, d2), dtype=np.float64)
    before[0, range(d), range(d)] = lam
    predictions = []
    for b, block in enumerate(blocks):
        Z, bounds = block_rows(b)
        k = len(block)
        after[k] = suffix[b + 1]
        for j in range(k):
            Zu = Z[bounds[j] : bounds[j + 1]]
            np.matmul(Zu.T, Zu, out=after[j])
            np.add(before[j], after[j], out=before[j + 1])
        for j in range(k - 1, -1, -1):
            after[j] += after[j + 1]
        for j, u in enumerate(block):
            np.add(before[j], after[j + 1], out=G)
            factor = cho_factor(G[:d1, :d1], lower=True, check_finite=False)
            theta = cho_solve(factor, G[:d1, d1], check_finite=False)
            scores = Z[bounds[j] : bounds[j + 1], :d] @ theta[:d] + theta[d]
            predictions.append(UserPrediction(u, float(scores.mean()), bounds[j + 1] - bounds[j]))
        before[0] = before[k]
    return predictions
