"""numpy, imported on first use: modules bind ``from . import _np as np``.

Module attribute lookup falls back to ``__getattr__`` (PEP 562) only for a
name this module lacks, so the first lookup imports numpy and copies its
names here; later lookups are plain dictionary reads.  ``setdefault`` keeps
this module's own dunders and any attribute set on it before (a test's patch).
"""


def __getattr__(name):
    import numpy

    for key, value in vars(numpy).items():
        globals().setdefault(key, value)
    return getattr(numpy, name)
