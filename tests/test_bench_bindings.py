"""The names the repository benchmark binds in ``src/repro`` still exist.

``perfbench/tracer.py`` wraps functions and methods by ``(owner, attr)``
and ``perfbench/test_perfbench.py`` reads dispatch tables out of
``core/context.py``; a rename in the program would otherwise surface only
in ``make bench-smoke``.
"""

from perfbench import tracer


def test_every_tracer_target_exists():
    targets = tracer._targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert not missing, missing


def test_context_dispatch_tables_exist():
    from repro.core import context

    for name in ("_ADAPTIVE_SPMV", "_ADAPTIVE_SPMM", "_STATIC_SPMV"):
        table = getattr(context, name)
        assert isinstance(table, dict) and table, name
        assert all(callable(fn) for fn in table.values()), name
