"""Thread-local flop counting for the instrumented pivot kernels.

A flop is one scalar multiply-add or one scalar division; additions and
copies are free.  Counting is off unless a :class:`count_flops` context
is active on the current thread.  No kernel tallies its operations:
``ppt_single`` adds n**2 and ``counted_singleton_inverse`` sum_{w=2..n} w**2
once their arithmetic is done, which counting therefore never changes.
"""
import threading

_state = threading.local()


class count_flops:
    """Count flops on the current thread: entering zeroes ``count`` and
    makes this context the thread's counter until exit.  Entering it again
    while it is active (nested) keeps the count, and each exit restores
    the counter its own entry replaced.

    >>> with count_flops() as fc:
    ...     ppt_single(a, 1)
    >>> fc.count
    """

    def __init__(self) -> None:
        self.count = 0
        self._replaced: list = []

    def __enter__(self) -> "count_flops":
        if not self._replaced:
            self.count = 0
        self._replaced.append(getattr(_state, "counter", None))
        _state.counter = self
        return self

    def __exit__(self, *exc):
        _state.counter = self._replaced.pop()
        return False


def add_flops(k: int = 1) -> None:
    c = getattr(_state, "counter", None)
    if c is not None:
        c.count += k
