"""Small on-disk cache for integer sequences; the CLI stores class polynomials.

One file per key.  Format, line by line: version, key, the decimal payload
(one integer per line), and a sha256 checksum over everything above.  A bad
checksum, version mismatch or parse error invalidates the entry silently;
callers recompute.  Writes go through an exclusive flock plus an atomic
rename, so concurrent runs sharing a cache directory cannot interleave.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import tempfile

CACHE_VERSION = 1


def cache_path(cache_dir: str, key: str) -> str:
    safe = key.replace(":", "_").replace("/", "_")
    return os.path.join(cache_dir, safe + ".cache")


def _checksum(version: int, key: str, values) -> str:
    h = hashlib.sha256()
    h.update(f"{version}\n{key}\n".encode())
    for v in values:
        h.update(f"{v}\n".encode())
    return h.hexdigest()


def load_ints(cache_dir: str, key: str) -> list[int] | None:
    """The cached integer sequence, or None when absent or invalid."""
    path = cache_path(cache_dir, key)
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError):
        return None
    if len(lines) < 3:
        return None
    try:
        version = int(lines[0])
        stored_key = lines[1]
        values = [int(s) for s in lines[2:-1]]
    except ValueError:
        return None
    if version != CACHE_VERSION or stored_key != key:
        return None
    if lines[-1] != _checksum(version, key, values):
        return None
    return values


def store_ints(cache_dir: str, key: str, values) -> None:
    """Atomically write the sequence under an exclusive lock."""
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, key)
    lock_path = path + ".lock"
    values = [int(v) for v in values]
    body = "\n".join(
        [str(CACHE_VERSION), key]
        + [str(v) for v in values]
        + [_checksum(CACHE_VERSION, key, values)]
    ) + "\n"
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".tmp-cache-")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(body)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        fcntl.flock(lock, fcntl.LOCK_UN)
