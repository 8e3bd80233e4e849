"""Compare the .vec value formatter with str() on every float32 it formats.

Walks every float32 in the 34 binades [2**-14, 2**20), both signs: about
5.7e8 values, which cover 1e-4 <= |x| < 1e6, the range where numpy writes a
float32 in positional form and ``postscore.vectext`` takes its fast path.
Wherever the fast path certifies a value, its text must equal
``str(np.float32(x))``; the values it leaves uncertified are written with
``str()`` and so cannot differ. Prints per-binade and total counts, and
exits 1 on any mismatch.

    PYTHONPATH=src python3 tools/vectext_exhaustive.py

It runs one worker process per CPU this process may use. Each formats 2**16
values at a time, so memory stays small; most of the time goes to the
``str()`` reference (about 1 us a value).
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
from itertools import compress

import numpy as np

CHUNK = 1 << 16
BIASED_EXPONENTS = range(127 - 14, 127 + 20)  # binades [2**-14, 2**-13) .. [2**19, 2**20)


def check_binade(task):
    """(biased exponent, sign bit) -> (values, in range, certified, first mismatch or None)."""
    from postscore.vectext import _fast_rows

    exponent, sign = task
    base = (sign << 31) | (exponent << 23)
    in_range = certified = 0
    for start in range(0, 1 << 23, CHUNK):
        values = (np.arange(base + start, base + start + CHUNK, dtype=np.uint32)).view(np.float32)
        magnitude = np.abs(values)
        in_range += int(np.count_nonzero((magnitude >= 1e-4) & (magnitude < 1e6)))
        lines, exact = _fast_rows(values.reshape(-1, 1))
        certified += int(np.count_nonzero(exact))
        fast = b"\n".join(compress(lines, exact))
        ref = "\n".join(map(str, values[exact])).encode()
        if fast != ref:
            for value, got in zip(values[exact], compress(lines, exact)):
                if got != str(value).encode():
                    return 1 << 23, in_range, certified, (float(value), got.decode(), str(value))
    return 1 << 23, in_range, certified, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    processes = len(os.sched_getaffinity(0))
    tasks = [(exponent, sign) for exponent in BIASED_EXPONENTS for sign in (0, 1)]
    totals = [0, 0, 0]
    mismatches = []
    t0 = time.perf_counter()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes) as pool:
        for task, (n, in_range, certified, mismatch) in zip(tasks, pool.imap(check_binade, tasks)):
            exponent, sign = task
            totals = [a + b for a, b in zip(totals, (n, in_range, certified))]
            status = "ok" if mismatch is None else f"MISMATCH {mismatch}"
            print(
                f"{'-' if sign else '+'}2**{exponent - 127:<4d} values {n} in range {in_range} "
                f"certified {certified} {status}",
                flush=True,
            )
            if mismatch is not None:
                mismatches.append(mismatch)
    n, in_range, certified = totals
    print(
        f"total: {n} values, {in_range} in 1e-4 <= |x| < 1e6, {certified} certified "
        f"({in_range - certified} left to str()), {len(mismatches)} binades with a mismatch, "
        f"{time.perf_counter() - t0:.0f} s on {processes} processes"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
