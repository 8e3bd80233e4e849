"""tools/same_bytes.py at the smoke workload, in one cache state."""

import importlib.util
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _copy_of_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_copies_are_identical_and_a_changed_constant_is_named(tmp_path, capsys):
    """Two copies of this tree give exit 0, and so does every command they
    run. A copy whose synthetic scores sit one higher gives exit 1, names
    labels.csv and gives its largest delta."""
    same_bytes = _tool()
    a, b, changed = (_copy_of_src(tmp_path / name) for name in ("a", "b", "changed"))
    synth = changed / "src" / "postscore" / "synth.py"
    text = synth.read_text(encoding="utf-8")
    assert text.count("\nSCORE_MEAN = 500.0\n") == 1
    synth.write_text(text.replace("\nSCORE_MEAN = 500.0\n", "\nSCORE_MEAN = 501.0\n"), encoding="utf-8")

    assert same_bytes.main([str(a), str(b), "smoke"], states=("cold",)) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 17 and out[-1] == "identical", out
    assert all(re.fullmatch(r"smoke cold \w+: identical", line) for line in out[:-1]), out  # each exit 0

    assert same_bytes.main([str(a), str(changed), "smoke"], states=("cold",)) == 1
    out = capsys.readouterr().out
    assert re.search(r"^smoke cold synth: differs: .*labels\.csv", out, re.M), out
    assert "  labels.csv: largest |delta|: score 1\n" in out, out
    assert "smoke cold featurize: identical" in out, out
    assert out.endswith("\ndiffers\n"), out
