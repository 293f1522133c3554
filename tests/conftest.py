import pytest

from linhyper import BipartiteGraph, _pool, new_degree_sequence


@pytest.fixture
def demo_graph():
    """6x4 graph with exactly two 4-cycles: {v1,v2}x{e1,e2} and {v5,v6}x{e3,e4}.

    Columns (0-based left masks): e1={0,1,2}, e2={0,1,3}, e3={1,4,5}, e4={3,4,5}.
    """
    return BipartiteGraph(6, 4, [0b000111, 0b001011, 0b110010, 0b111000])


@pytest.fixture
def demo_ds():
    return new_degree_sequence((2, 3, 1, 2, 2, 2), 3)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Runs pooled tasks in-process; returns the pool sizes requested."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(_pool, "_executor", RecordingPool)
    return sizes
