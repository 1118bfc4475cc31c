"""Pinned multiprocessing context for scenario worker pools.

The campaign runner fans scenario work out to worker processes.  Relying on
``multiprocessing.get_context()`` ties behaviour to the platform default
start method — ``fork`` on POSIX today, which is unsafe once any thread
exists in the parent and is being phased out as the default in newer
CPython.  This module pins one explicit choice for every pool in the
package: **forkserver** where available (POSIX), falling back to
**spawn**.  Both start methods import worker code in a fresh interpreter,
so every job payload must pickle — a property the test suite pins by
round-tripping the payloads under the spawn pickler.
"""

from __future__ import annotations

import multiprocessing


def execution_context() -> multiprocessing.context.BaseContext:
    """The one explicitly-pinned start-method context used by all pools."""
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # platform without forkserver (e.g. Windows)
        return multiprocessing.get_context("spawn")
