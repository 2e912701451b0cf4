"""Every program name the bench's span tracer wraps still exists.

`bench/tracing.py` wraps `sparseview.<module>.<attr>` by name; a name the
program no longer has would only show up when the bench runs traced, so this
test reads the same table and looks each name up.
"""

import importlib
import importlib.util
import os

import pytest

from sparseview import cli

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _spans():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = _spans()


@pytest.mark.parametrize(
    "module,attr", sorted({(m, a) for m, a, *_ in SPANS}), ids=lambda x: x
)
def test_traced_name_exists(module, attr):
    # the depth half needs numpy, whether its names are read from the CLI or not
    owner = cli._LAZY.get(attr, module) if module == "cli" else module
    if owner in ("depth_filter", "pfm"):
        pytest.importorskip("numpy")
    mod = importlib.import_module(f"sparseview.{module}")
    assert callable(getattr(mod, attr, None)), f"sparseview.{module}.{attr} is gone"
