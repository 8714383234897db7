"""The benchmark names package functions, and a name that no longer
resolves breaks every benchmark run.

``perfbench/tracer.py`` wraps each ``module.function`` name of its
``TRACED`` list at install, so a function renamed or moved out of the
module named there breaks every traced run.  The tracer is loaded by its
path and not installed.  ``perfbench/workloads.py`` reads package names as
``rg.<name>`` or ``rg.<module>.<name>`` while it sets a workload up; the
file is read as text, not run.
"""

import importlib.util
import re
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def test_workload_names_resolve():
    import ribbongraph
    import ribbongraph.cli  # noqa: F401  imports every module the workloads name

    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    chains = set(re.findall(r"\brg((?:\.[A-Za-z_]\w*){1,2})", text))
    assert "topology.trace_walks" in {c[1:] for c in chains}
    for chain in chains:
        target = ribbongraph
        for name in chain[1:].split("."):
            target = getattr(target, name, None)
            assert target is not None, "rg" + chain
