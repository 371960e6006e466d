"""Every name that callers outside the package look up must resolve.

The traced benchmark run (perfbench/child.py) wraps the functions named in
its LAYERS and ITERATOR_LAYERS with getattr; a deleted or renamed function
makes that run raise AttributeError, which no other test would notice.
"""

import importlib
import importlib.util
from pathlib import Path

import qamseq

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    child = load_child()
    layers = [entry[:2] for entry in child.LAYERS + child.ITERATOR_LAYERS]
    assert layers
    for module, function in layers:
        assert callable(getattr(importlib.import_module(f"qamseq.{module}"), function))


def test_public_exports_resolve():
    for name in qamseq.__all__:
        assert getattr(qamseq, name) is not None
