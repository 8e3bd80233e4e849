"""The benchmark's own smoke test runs on this tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_passes():
    """``python3 bench/smoke.py`` passes: both bench modes at a tiny scale,
    with every metric named. Its traced replay calls the library with lists
    of TokenizedPost and wraps ``pipeline.score_tokenized_posts``, so a
    library change that breaks the replay fails here."""
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok: ") == 4, proc.stdout
