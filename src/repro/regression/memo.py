"""One thread-local fit memo for model selection.

Model selection fits many pipelines on the same arrays: every candidate
of a cross-validation fold sees the same training and test matrices,
the PCA families share a centred SVD, the families behind one
``PCA(k) -> StandardScaler`` front end share its fit and its output,
and the ridge alphas share one centred Gram.  Inside a
:func:`fit_memo` block each such value is computed once, by the first
fit that needs it, and handed to every later fit on the same read-only
array objects -- the same bits, once.

Only read-only arrays are keys: a writable array could change between
two fits.  Every memoized value is made read-only before it is shared,
and the memo pins each key object alive, so its identity cannot be
reused within the block.  The memo is per thread, so concurrent fits on
thread executors never see each other's block.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Hashable, Iterator, Sequence, TypeVar

import numpy as np

__all__ = ["fit_memo", "memoized"]

T = TypeVar("T")

#: per-thread memo of the innermost open :func:`fit_memo` block
_scope = threading.local()


@contextmanager
def fit_memo() -> Iterator[None]:
    """Within this block, fits on the same read-only arrays share work.

    A nested block starts empty and the outer one resumes when it
    closes.
    """
    outer = getattr(_scope, "memo", None)
    _scope.memo = {}
    try:
        yield
    finally:
        _scope.memo = outer


def _freeze(value) -> None:
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item)


def memoized(tag: Hashable, operands: Sequence[object], compute: Callable[[], T]) -> T:
    """``compute()``, shared by every call with ``tag`` on the same ``operands``.

    Outside a :func:`fit_memo` block, or when any operand is a writable
    array, this is just ``compute()``.  Inside, the first call computes
    the value, makes its arrays read-only and keeps it; later calls
    with the same tag on the very same operand objects get it back.
    ``compute`` must be a pure function of the tag and the operands.
    """
    memo = getattr(_scope, "memo", None)
    if memo is None or any(
        isinstance(a, np.ndarray) and a.flags.writeable for a in operands
    ):
        return compute()
    key = (tag, *map(id, operands))
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    value = compute()
    _freeze(value)
    memo[key] = (tuple(operands), value)
    return value
