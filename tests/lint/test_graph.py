"""Unit tests for the project symbol table / call graph (repro.lint.graph)."""

from __future__ import annotations

from repro.lint.engine import load_project
from repro.lint.graph import fn_key, project_graph

from .conftest import write_tree

TREE = {
    "repro/alpha.py": """
    from .beta import helper
    from . import gamma

    class Engine:
        def __init__(self, pool: "Pool"):
            self.pool = pool
            self.box = Box()

        def run(self, x):
            self.step(x)
            self.pool.acquire()
            self.box.open()
            return helper(x) + gamma.shape(x)

        def step(self, x):
            return x

    class Pool:
        def acquire(self):
            return 1

    class Box:
        def open(self):
            return 2

    def outer():
        def inner(y):
            return y

        return inner(3)
    """,
    "repro/beta.py": """
    def helper(x):
        return x + 1
    """,
    "repro/gamma.py": """
    def shape(x):
        return x * 2
    """,
}


def graph_of(tmp_path, files=TREE):
    root = write_tree(tmp_path, files)
    project, errors = load_project(root)
    assert not errors
    return project_graph(project)


def test_symbol_table_counts(tmp_path):
    graph = graph_of(tmp_path)
    assert fn_key("repro/alpha.py", "Engine.run") in graph.functions
    assert fn_key("repro/alpha.py", "outer.inner") in graph.functions
    assert fn_key("repro/alpha.py", "Engine") in graph.classes


def test_resolution_levels(tmp_path):
    """All four resolution levels from one call site each."""
    graph = graph_of(tmp_path)
    callees = {
        site.callee for site in graph.callees(fn_key("repro/alpha.py", "Engine.run"))
    }
    # from-import, self.method, module-attribute, annotated attribute,
    # and inferred constructor-assigned attribute:
    assert fn_key("repro/beta.py", "helper") in callees
    assert fn_key("repro/alpha.py", "Engine.step") in callees
    assert fn_key("repro/gamma.py", "shape") in callees
    assert fn_key("repro/alpha.py", "Pool.acquire") in callees
    assert fn_key("repro/alpha.py", "Box.open") in callees


def test_nested_def_scope_chain(tmp_path):
    graph = graph_of(tmp_path)
    callees = {
        site.callee for site in graph.callees(fn_key("repro/alpha.py", "outer"))
    }
    assert fn_key("repro/alpha.py", "outer.inner") in callees


def test_no_phantom_edges_for_unknown_receivers(tmp_path):
    """Unresolvable calls produce no edges (may-call under-approximation)."""
    graph = graph_of(
        tmp_path,
        {
            "repro/solo.py": """
            def f(mystery):
                return mystery.run(1)
            """
        },
    )
    assert graph.callees(fn_key("repro/solo.py", "f")) == []


STAGE_TREE = {
    "repro/chain.py": """
    from .exec.cache import fingerprint

    def stage(key, compute):
        return compute()

    def run_chain(profile, rng, gain):
        key = fingerprint(profile, gain)
        return stage(key, lambda: rng)

    def run_meta(profile, rng, gain):
        return run_chain(profile, rng, gain)
    """,
    "repro/exec/cache.py": """
    def fingerprint(*parts):
        return hash(parts)
    """,
}


def test_stage_runner_keys_cross_module(tmp_path):
    graph = graph_of(tmp_path, STAGE_TREE)
    runners = graph.stage_runner_keys()
    assert fn_key("repro/chain.py", "run_chain") in runners
    # run_meta is a runner only transitively (it calls run_chain).
    assert fn_key("repro/chain.py", "run_meta") in runners


def test_sink_reach_direct_and_cross_call(tmp_path):
    graph = graph_of(tmp_path, STAGE_TREE)
    reach = graph.sink_reach("fingerprint")
    direct = reach[fn_key("repro/chain.py", "run_chain")]
    assert {"profile", "gain"} <= direct
    assert "rng" not in direct
    # Parameters reach the sink through the cross-module call fixpoint.
    meta = reach[fn_key("repro/chain.py", "run_meta")]
    assert {"profile", "gain"} <= meta
    assert "rng" not in meta


def test_key_carrier_attribute_counts_as_reach(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "repro/chain.py": """
            def stage(key, compute):
                return compute()

            def run_plan(plan):
                for key in plan.keys:
                    stage(key, lambda: None)
            """
        },
    )
    reach = graph.sink_reach("fingerprint", key_carrier_attrs=("keys",))
    assert "plan" in reach[fn_key("repro/chain.py", "run_plan")]
