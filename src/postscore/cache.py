"""A cache of parsed inputs, keyed by the sha256 of the file parsed.

A `.vec` table (``embeddings.load_vec_cached``) and a posts file
(``pipeline.load_corpus``) are each parsed once; later commands load what the
parse gave from ``$XDG_CACHE_HOME/postscore`` (``~/.cache/postscore`` when
that variable is unset or relative). ``load`` is the only route to it: no
other module names, opens, writes, touches or evicts an entry's files. A
kind of input says only what goes into an entry and what a hit must pass.

The entry of kind ``<kind>`` for a file whose sha256 is ``<key>`` is one
``<key>.<kind>.<name>.npy`` per array, memory-mapped read-only on a hit, and
``<key>.<kind>.json``: the format number and the kind's strings, counts and
digest, as UTF-8 that keeps a lone surrogate (a user id may hold one) with
``surrogatepass``. The JSON is written last and touched on every hit, so its
modification time is the entry's last use. Each kind keeps at most
``ENTRIES`` entries, and its least recently used go first.
"""

import json
import os
import tempfile
import tokenize
import warnings
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import dataio

# Entries each kind keeps. A 2M x 300 table is 2.4 GB as float32, so the
# bound is also one on disk.
ENTRIES = 4
# Written into every entry; an entry of another format is a miss. A change to
# the layout, or to what a kind's parse accepts or gives, changes this number.
_FORMAT = 2


def load(path, kind: str, parse, pack, unpack):
    """``(value, sha256)`` of the file at ``path``: the entry of ``kind``
    under the file's sha256, or else ``parse(path)``.

    The file's stamp is taken, then the file is hashed once. A hit is
    ``unpack(meta, array)`` of the entry's JSON object, with ``array(name)``
    mapping one of its arrays; None from it, or any failure to open or
    decode an entry file, is a miss. A miss parses the file and stores the
    arrays (a dict by name) and JSON object that ``pack(value)`` gives,
    unless the stamp moved: the file may no longer hold the bytes its digest
    names. A cache that cannot be found or written costs a parse and nothing
    else. Errors of the parse propagate, and nothing is stored.
    """
    before = _stamp(path)
    key = dataio.sha256_file(path)
    root = cache_root()
    if root is not None:
        value = _read(root, f"{key}.{kind}", unpack)
        if value is not None:
            return value, key
    value = parse(path)
    if root is not None and _stamp(path) == before:
        with suppress(OSError):
            root.mkdir(parents=True, exist_ok=True)
            _write(root, f"{key}.{kind}", *pack(value))
            _evict(root, kind)
    return value, key


def cache_root():
    """The cache directory, or None when no home directory can be found."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        try:
            base = Path.home() / ".cache"
        except RuntimeError:
            return None
    return Path(base) / "postscore"


def _stamp(path):
    """Inode, size and modification time: a rewrite changes them."""
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns


def _read(root, entry: str, unpack):
    """What ``unpack`` makes of the entry named ``entry``, or None."""
    def array(name):
        # numpy parses a header with Python's tokenizer and literal_eval: a
        # damaged one can fail as they do, or warn that it needed the parse
        # of a header written by Python 2, which np.save never writes.
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            try:
                return np.load(root / f"{entry}.{name}.npy", mmap_mode="r", allow_pickle=False)
            except (tokenize.TokenError, SyntaxError, TypeError, UserWarning) as exc:
                raise ValueError(f"damaged header in {name}.npy") from exc

    try:
        # bytes: json decodes them with surrogatepass
        meta = json.loads((root / f"{entry}.json").read_bytes())
        if not (isinstance(meta, dict) and meta.get("format") == _FORMAT):
            return None
        value = unpack(meta, array)
    # numpy raises EOFError on an empty file, and json RecursionError on
    # deeply nested brackets.
    except (OSError, ValueError, EOFError, RecursionError):
        return None
    if value is not None:
        with suppress(OSError):
            os.utime(root / f"{entry}.json")
    return value


def _write(root, entry: str, arrays: dict, meta: dict) -> None:
    for name, a in arrays.items():
        with _replacing(root / f"{entry}.{name}.npy") as f:
            np.save(f, a, allow_pickle=False)
    text = json.dumps({"format": _FORMAT, **meta}, ensure_ascii=False, separators=(",", ":"))
    with _replacing(root / f"{entry}.json") as f:
        f.write(text.encode("utf-8", "surrogatepass"))


@contextmanager
def _replacing(path):
    """A file to write ``path`` through: a temporary file beside it, renamed
    over ``path`` once written. Its name starts with ``path``'s up to the
    last suffix, so it belongs to the same entry."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name.rpartition(".")[0] + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _evict(root, kind: str) -> None:
    """Remove the least recently used entries of ``kind`` beyond ``ENTRIES``:
    each is every file named ``<key>.<kind>.*``. A file named by a key and
    one suffix is of the layout before format 2, and goes too."""
    entries = {}
    for p in root.iterdir():
        key, _, rest = p.name.partition(".")
        if len(key) != 64:  # a sha256 in hex
            continue
        if rest.startswith(f"{kind}."):
            entries.setdefault(key, []).append(p)
        elif "." not in rest:
            p.unlink(missing_ok=True)

    def last_use(key):
        try:
            return os.stat(root / f"{key}.{kind}.json").st_mtime_ns
        except OSError:
            return 0

    for key in sorted(entries, key=last_use, reverse=True)[ENTRIES:]:
        for p in entries[key]:
            p.unlink(missing_ok=True)
