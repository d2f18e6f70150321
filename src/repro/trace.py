"""One clock per statement: where a statement's time went, by layer.

``Session`` opens a :class:`Trace` per statement and returns it as
``SessionResult.trace``; a function that begins a layer carries
``@traced("<layer>")``, named as in ``benchmarks/e2e/tracing.py``. Each
layer boundary reads the clock once, and the time since the previous
boundary belongs to the layer then on top of the stack, so a layer
holds its *self* seconds and the layers sum to the statement's wall
clock. The open trace is a ``ContextVar``, one per thread; with none
open a traced function runs untimed (DESIGN §12 "One clock per
statement").
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import wraps
from time import perf_counter
from typing import Callable, Dict, List, Optional

STATEMENT = "server.session"


class Trace(list):
    """A statement's layer boundaries in order: ``(layer, t)`` where a
    layer opens, ``(None, t)`` where the innermost open one closes.
    Recording is two appends per layer; the sums are made when read."""

    __slots__ = ("token",)

    @property
    def layers(self) -> Dict[str, float]:
        """Self seconds per layer, in the order they first opened."""
        layers: Dict[str, float] = {}
        stack: List[str] = []
        mark = 0.0
        for layer, now in self:
            if stack:
                top = stack[-1]
                layers[top] = layers.get(top, 0.0) + (now - mark)
            if layer is None:
                stack.pop()
            else:
                stack.append(layer)
            mark = now
        return layers

    @property
    def total(self) -> float:
        """Seconds from the first boundary to the last."""
        return self[-1][1] - self[0][1] if self else 0.0

    def __enter__(self) -> "Trace":
        """Open this trace here, outside any statement (setup, say)."""
        self.token = _current.set(self)
        self.append((STATEMENT, perf_counter()))
        return self

    def __exit__(self, *exc) -> None:
        self.append((None, perf_counter()))
        _current.reset(self.token)

    def format(self) -> str:
        return " ".join(f"{k}={s * 1e3:.3f}" for k, s in self.layers.items())


_current: ContextVar[Optional[Trace]] = ContextVar("trace", default=None)


def traced(layer: str) -> Callable[[Callable], Callable]:
    """Charge the function's self time to *layer* of the open trace. The
    statement layer opens a trace when none is open and sets the one it
    ran in on the ``SessionResult`` it returns."""
    opens = layer == STATEMENT

    def decorate(function: Callable) -> Callable:
        @wraps(function)
        def timed(*args, **kwargs):
            trace = _current.get()
            token = None
            if trace is None:
                if not opens:
                    return function(*args, **kwargs)
                # Trace.__enter__ / __exit__, inlined: this is the
                # per-statement path.
                trace = Trace()
                token = _current.set(trace)
            trace.append((layer, perf_counter()))
            try:
                result = function(*args, **kwargs)
            finally:
                trace.append((None, perf_counter()))
                if token is not None:
                    _current.reset(token)
            if opens:
                result.trace = trace
            return result

        return timed

    return decorate
