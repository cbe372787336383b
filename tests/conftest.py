from pathlib import Path

import numpy as np
import pytest

import ldcnet.graph as graph_module

#: Warnings that fail a test under ``tests/``: an unclosed file, or a worker pool
#: left open, whose warning surfaces as an unraisable exception. They are marks on
#: this directory's tests rather than ``pyproject.toml`` filters, which would also
#: reach the bench's self-tests (``python -m pytest bench``).
STRICT_WARNINGS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            for rule in STRICT_WARNINGS:
                item.add_marker(pytest.mark.filterwarnings(rule))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every call of ``graph._kernel``, the one shortest-path entry, as ``(arcs, sources)``.

    ``arcs`` is the CSR skeleton the call ran on and ``sources`` its source
    vertices, in order.
    """
    calls = []
    kernel = graph_module._kernel

    def counted(arcs, sources):
        calls.append((arcs, np.asarray(sources)))
        return kernel(arcs, sources)

    monkeypatch.setattr(graph_module, "_kernel", counted)
    return calls
