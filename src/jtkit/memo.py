"""The memo policy shared by every jtkit cache, and the marker for terms
that value arithmetic has already made canonical.

Every cache is a plain dict written only through memo_put.  Entries are
write-once: an existing entry wins over a new value for the same key.  The
environment variable JTKIT_CACHE_SIZE, read once at import, caps the number
of entries each cache accepts (default 1 << 20; a malformed value falls back
to the default and a negative one means 0).  Once a cache is full, new
values are still computed and returned but not stored.
"""

from __future__ import annotations

import os

_DEFAULT_CAP = 1 << 20


def _read_cap() -> int:
    raw = os.environ.get("JTKIT_CACHE_SIZE", "")
    try:
        return max(0, int(raw)) if raw else _DEFAULT_CAP
    except ValueError:
        return _DEFAULT_CAP


CAP = _read_cap()


def memo_put(memo: dict, key, value):
    """Store value under key unless the key is present or memo is full.

    Returns the entry already cached under key if there is one, else value."""
    if key in memo:
        return memo[key]
    if len(memo) < CAP:
        memo[key] = value
    return value


class _Canonical(dict):
    """Terms that value arithmetic (SchurClass, TruncSeries) built from the
    keys of canonical values: every key is already in canonical form, and
    only the zero coefficients, left where terms cancelled, remain to be
    dropped by the constructor."""
