"""Fixed reference command for the benchmark's host-speed probe.

    python3 bench/probe.py

It does what a postscore command does, at a fixed small size and with no
postscore code: start the interpreter, import numpy and scipy, parse text
floats, count regex tokens and solve a small dense system. Its inputs never
change, so its wall time moves only with the speed of the host.
"""

import re

import numpy as np
import scipy.linalg  # noqa: F401  (every postscore command imports it)

rng = np.random.default_rng(0)
lines = [" ".join(f"{x:.6f}" for x in row) for row in rng.standard_normal((200, 100))]
m = np.array([[float(v) for v in line.split()] for line in lines])
np.linalg.solve(m.T @ m + np.eye(m.shape[1]), m.T)
counts = {}
for word in re.findall(r"[\w.]+", " ".join(lines[:100])):
    counts[word] = counts.get(word, 0) + 1
