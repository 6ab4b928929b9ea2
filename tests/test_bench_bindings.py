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


def test_tracer_counts_one_driver_pass_per_run_at_every_width():
    """The benchmark looks ``repro.turbo_bc`` up after entering the tracer, so
    the wrapped entry point is the outermost call and counts the sources; the
    run then passes once through each driver layer, whatever its width, and
    its ``bc`` is the untraced run's bit for bit."""
    import repro
    from repro.graphs.generators.road import road_network_graph

    graph = road_network_graph(6, 6, segments=2, seed=3)
    for batch in (1, 2):
        plain = repro.turbo_bc(graph, sources=[0, 5, 9], algorithm="adaptive",
                               batch_size=batch)
        with tracer.Tracer() as t:
            traced = repro.turbo_bc(graph, sources=[0, 5, 9], algorithm="adaptive",
                                    batch_size=batch)
        assert t.sources_requested == 3 and t.forward_passes == 3, batch
        for name in ("turbo_bc", "_turbo_bc_impl", "_turbo_bc_batched"):
            assert t.calls[f"core.bc.{name}"] == 1, (batch, name)
        assert traced.bc.tobytes() == plain.bc.tobytes(), batch
