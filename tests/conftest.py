import numpy as np
import pytest

import ldcnet.graph as graph_module


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
