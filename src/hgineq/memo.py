"""Bounded per-process memos, and one call that empties them all.

Every cache of the package is a :class:`Memo` or a :func:`bounded`
``functools.lru_cache``: each keeps a fixed number of entries and
registers when it is built, so :func:`clear_caches` reaches every one.
The README's "Caches" table lists their keys and bounds.
"""

import functools

_CLEARS = []  # the clear method of every memo built


class Memo(dict):
    """A dict that keeps its newest ``size`` entries.

    ``hit(key)`` returns the entry under ``key``, made the newest, or
    ``None``; ``keep(key, entry)`` stores ``entry`` as the newest, drops the
    oldest beyond ``size`` and returns ``entry``.  A key made of ids has
    its entry hold the objects of those ids, so the ids stay theirs."""

    def __init__(self, size):
        super().__init__()
        self.size = size
        _CLEARS.append(self.clear)

    def hit(self, key):
        entry = self.pop(key, None)
        if entry is not None:
            self[key] = entry
        return entry

    def keep(self, key, entry):
        self[key] = entry
        if len(self) > self.size:
            del self[next(iter(self))]
        return entry


def bounded(size, typed=False):
    """``functools.lru_cache(size, typed)``, registered with :func:`clear_caches`."""
    def wrap(fn):
        cached = functools.lru_cache(maxsize=size, typed=typed)(fn)
        _CLEARS.append(cached.cache_clear)
        return cached
    return wrap


def read_only(array):
    """``array``, made read-only: the callers it is handed to must not write it."""
    array.flags.writeable = False
    return array


def clear_caches():
    """Empty every memo of the package."""
    for clear in _CLEARS:
        clear()
