"""Every layer the benchmark tracer rebinds must still exist.

perfbench/tracer.py names (module, function) pairs in TARGETS and wraps
each one by name in every polymerlab namespace.  A refactor that renames
or deletes one of them would silently drop that layer from a traced run,
so this test reads the list (without changing any benchmark file) and
resolves each pair on the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_layer_resolves():
    targets = _targets()
    assert targets
    for mod_name, fn_name, _ in targets:
        module = importlib.import_module(f"polymerlab.{mod_name}")
        fn = getattr(module, fn_name, None)
        assert callable(fn), f"polymerlab.{mod_name}.{fn_name} is gone"


def test_metropolis_positions_the_tracer_reads():
    # the tracer's proposal count reads T and init off a positional call
    # of gibbs.metropolis_sampler by index; a reordered signature would
    # make it read another argument without an error
    from polymerlab.gibbs import metropolis_sampler
    names = list(inspect.signature(metropolis_sampler).parameters)
    assert names[1] == "T"
    assert names[9] == "init"
