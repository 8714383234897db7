"""The benchmark's traced mode names package functions by ``module.function``.

``perfbench/tracer.py`` wraps each name of its ``TRACED`` list at install,
so a function renamed or moved out of the module named there breaks every
traced run.  The tracer is loaded by its path and not installed.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import ribbongraph.cli  # noqa: F401  imports every traced module

    assert tracer.TRACED
    for name in tracer.TRACED:
        module, function = name.split(".")
        target = getattr(sys.modules[f"{tracer.PACKAGE}.{module}"], function, None)
        assert callable(target), name
