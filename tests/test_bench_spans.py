"""The benchmark's traced mode still finds every function it names.

``bench/spans.py`` wraps the functions listed in its ``TRACED`` table, so a
library change that deletes or renames one of them breaks
``bench/run.py --trace 1``. This test reads the table at run time and
enters and leaves a tracer over the installed package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("fairtrim_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_bench_tracer_wraps_and_restores_every_traced_function(spans):
    homes = {short: importlib.import_module(f"fairtrim.{short}") for short in spans.TRACED}
    originals = {
        (short, name): getattr(homes[short], name)
        for short, funcs in spans.TRACED.items()
        for name, _ in funcs
    }
    traced = {id(fn) for fn in originals.values()}
    packages = [m for name, m in sys.modules.items() if name.split(".")[0] == "fairtrim"]
    # every binding of a traced function in any fairtrim module, the package included
    bound = {
        (mod.__name__, attr): value
        for mod in packages
        for attr, value in vars(mod).items()
        if id(value) in traced
    }
    with spans.Tracer():
        for (short, name), fn in originals.items():
            assert getattr(homes[short], name) is not fn, f"{short}.{name} was not wrapped"
    for (mod_name, attr), value in bound.items():
        assert vars(sys.modules[mod_name])[attr] is value, f"{mod_name}.{attr} was not restored"
