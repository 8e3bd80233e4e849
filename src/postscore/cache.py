"""A cache of parsed inputs, keyed by the sha256 of the file parsed.

A `.vec` table (``embeddings.load_vec_cached``) and a posts file
(``pipeline.load_corpus``) are each parsed once; later commands load what the
parse gave from ``$XDG_CACHE_HOME/postscore`` (``~/.cache/postscore`` when
that variable is unset or relative). An entry is a few files whose names
start with the key: a table's are ``<sha256>.npy`` and ``<sha256>.json``, a
posts corpus's ``<sha256>.posts.arrays`` and ``<sha256>.posts.meta``. Each
kind keeps its own number of entries, and its least recently used goes
first. This module needs only the standard library.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

# The file of each kind of entry that is written last and touched on every
# hit, so that its modification time is the entry's last use.
_LAST_USE = {"table": ".json", "posts": ".posts.meta"}


def load(path, key, before, kind, limit, read, parse, write):
    """``parse(path)``, or the entry ``read(root, key)`` finds under ``key``.

    ``key`` is the sha256 of the file's bytes, and ``before`` the file's
    ``stamp()`` taken before it was hashed (None: taken now). ``read``
    returns None for anything but a whole entry that passes its checks, and
    that is a miss: the file is parsed, and ``write(root, key, value)``
    stores what the parse gave, unless the file changed since ``before``: it
    may no longer hold the bytes that ``key`` names. Then the least recently
    used entries of ``kind`` beyond ``limit`` are removed. A cache that
    cannot be found or written costs a parse and nothing else: no error or
    message reaches the caller. Errors of the parse propagate, and nothing
    is stored.
    """
    root = cache_root()
    if root is not None:
        value = read(root, key)
        if value is not None:
            try:
                os.utime(root / f"{key}{_LAST_USE[kind]}")
            except OSError:
                pass
            return value
    if before is None:
        before = stamp(path)
    value = parse(path)
    if root is not None and stamp(path) == before:
        try:
            root.mkdir(parents=True, exist_ok=True)
            write(root, key, value)
            evict(root, kind, limit)
        except OSError:
            pass
    return value


def stamp(path):
    """Inode, size and modification time: they change when a file is
    rewritten."""
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns


def cache_root():
    """The cache directory, or None when no home directory can be found."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        try:
            base = Path.home() / ".cache"
        except RuntimeError:
            return None
    return Path(base) / "postscore"


def _kind(name: str):
    """The kind of entry a cache file belongs to, or None for a name that no
    entry's file has. A posts corpus's files, temporary ones too, are named
    ``<key>.posts.*``; a table's ``<key>.*`` otherwise."""
    key, _, rest = name.partition(".")
    if len(key) != 64:  # a sha256 in hex
        return None
    return "posts" if rest.startswith("posts.") else "table"


def evict(root, kind: str, limit: int) -> None:
    """Remove the least recently used entries of ``kind`` beyond ``limit``.
    An entry is every file of that kind whose name starts with its key."""
    entries = {}
    for p in root.iterdir():
        if _kind(p.name) == kind:
            entries.setdefault(p.name.partition(".")[0], []).append(p)
    if len(entries) > limit:
        def last_use(key):
            try:
                return os.stat(root / f"{key}{_LAST_USE[kind]}").st_mtime_ns
            except OSError:
                return 0
        for key in sorted(entries, key=last_use)[: len(entries) - limit]:
            for p in entries[key]:
                p.unlink(missing_ok=True)


def replace(path, write) -> None:
    """Write ``path`` through ``write(file)`` on a temporary file beside it,
    then rename that over ``path``. The temporary file's name starts with
    ``path``'s up to its last suffix, so it belongs to the same entry."""
    prefix = path.name.rpartition(".")[0] + "."
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
