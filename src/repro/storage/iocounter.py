"""Page-IO accounting shared by every physical operator."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IOSnapshot:
    """An immutable point-in-time reading of an :class:`IOCounter`."""

    page_reads: int
    page_writes: int

    @property
    def total(self) -> int:
        return self.page_reads + self.page_writes

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            page_reads=self.page_reads - other.page_reads,
            page_writes=self.page_writes - other.page_writes,
        )


class IOCounter:
    """Counts page reads and writes performed by physical operators.

    One counter is shared per database; operators receive it at open time
    and charge each page touch. ``measure()`` is the ergonomic way to get
    the IO attributable to a region of code::

        with io.measure() as span:
            run_query(...)
        print(span.delta.total)
    """

    def __init__(self) -> None:
        self.page_reads = 0
        self.page_writes = 0

    def read_pages(self, count: int = 1) -> None:
        """Charge *count* page reads."""
        self.page_reads += count

    def write_pages(self, count: int = 1) -> None:
        """Charge *count* page writes."""
        self.page_writes += count

    def snapshot(self) -> IOSnapshot:
        return IOSnapshot(self.page_reads, self.page_writes)

    def measure(self) -> "_MeasureSpan":
        """Return a context manager capturing the IO delta of its body."""
        return _MeasureSpan(self)

    @property
    def total(self) -> int:
        return self.page_reads + self.page_writes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IOCounter(reads={self.page_reads}, writes={self.page_writes})"


class _MeasureSpan:
    """Context manager produced by :meth:`IOCounter.measure`."""

    def __init__(self, counter: IOCounter) -> None:
        self._counter = counter
        self._start: IOSnapshot | None = None
        self.delta: IOSnapshot = IOSnapshot(0, 0)

    def __enter__(self) -> "_MeasureSpan":
        self._start = self._counter.snapshot()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.delta = self._counter.snapshot() - self._start
