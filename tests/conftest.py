"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def cleared_caches():
    """Every cache (an attribute with `cache_clear`) of every loaded module
    of the package, cleared, so that a memory measurement starts from
    nothing; a cache added later is cleared too, and a module not yet
    loaded holds nothing to clear."""
    caches = {id(obj): obj
              for name, module in list(sys.modules.items())
              if name.partition(".")[0] == "blochwalk"
              for obj in vars(module).values()
              if callable(getattr(obj, "cache_clear", None))}
    for cache in caches.values():
        cache.cache_clear()
    return list(caches.values())
