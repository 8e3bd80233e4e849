"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths they verify: the regression oracle is
plain gradient descent on the raw loss, the p-value oracle goes through
mpmath's incomplete beta at 50 digits, and the post and word scores look each
token up in ``table.vocab`` on its own and take one plain mean and dot
product. (The leave-one-user-out checks retrain from scratch per user in the
tests themselves.)
"""

import mpmath as mp
import numpy as np


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


def predict_post(model, vector):
    """w.x + b for one post vector."""
    return float(model.weights @ np.asarray(vector, dtype=np.float64)) + model.bias


def score_word(model, table, word):
    """w.v + b for the word's row, or None when ``table.vocab`` lacks it."""
    idx = table.vocab.get(word)
    if idx is None:
        return None
    return predict_post(model, table.vectors[idx])
