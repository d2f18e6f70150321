"""The serving subsystem: sessions, plan cache, prepared statements,
and the line-protocol server/client.

Attributes resolve lazily (PEP 562): ``repro.db`` constructs the shared
:class:`PlanCache` at ``Database`` init, while :mod:`.session` imports
``repro.db`` for result types — eager imports here would close that
cycle at import time.
"""

from __future__ import annotations

_EXPORTS = {
    "PlanCache": ".plancache",
    "CacheEntry": ".plancache",
    "Session": ".session",
    "SessionResult": ".session",
    "PlannedStatement": ".session",
    "PreparedStatement": ".session",
    "query_signature": ".signature",
    "cache_key": ".signature",
    "clone_plan": ".planrewrite",
    "parameterize_query": ".parameterize",
    "bind_parameters": ".planrewrite",
    "plan_parameters": ".planrewrite",
    "serve": ".net",
    "ServerThread": ".net",
    "connect": ".net",
    "LineClient": ".net",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(module_name, __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
