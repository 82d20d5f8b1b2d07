"""Thread-local flop counting for the instrumented pivot kernels.

A flop is one scalar multiply-add or one scalar division; additions and
copies are free.  Counting is off unless a :class:`count_flops` context
is active on the current thread.  The kernels add the extent of each
vectorized operation they run, so counting never changes their
arithmetic.
"""
import threading

_state = threading.local()


class FlopCounter:
    """Accumulates counted scalar operations."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, k: int = 1) -> None:
        self.count += k


class count_flops:
    """Enable flop counting on the current thread.

    >>> with count_flops() as fc:
    ...     ppt_single(a, 1)
    >>> fc.count
    """

    def __enter__(self) -> FlopCounter:
        self._previous = getattr(_state, "counter", None)
        _state.counter = FlopCounter()
        return _state.counter

    def __exit__(self, *exc):
        _state.counter = self._previous
        return False


def active_counter():
    """The innermost active counter on this thread, or None."""
    return getattr(_state, "counter", None)


def add_flops(k: int = 1) -> None:
    c = getattr(_state, "counter", None)
    if c is not None:
        c.count += k
