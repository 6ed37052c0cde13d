"""The benchmark's tracer (perfbench/tracing.py) wraps named functions and
methods of the package; its contract with the package is checked here, on
the imported modules, without running a workload.

`Tracer.install` reads each traced method from its own class's `__dict__`,
so a method such as `CoeffTensor.scaled_integers` or `Series2.__mul__` must
stay defined on that class, not only inherited from a shared base.
"""

import importlib.util
import sys
from pathlib import Path

import qcycle.cli  # noqa: F401  (imports every module the tracer wraps)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    """Import perfbench/tracing.py by path, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location("qcycle_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _owner(module, qualname):
    owner = sys.modules[f"qcycle.{module}"]
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_every_traced_name_is_wrapped_and_restored():
    tracing = _load_tracing()
    namespaces = {name: dict(m.__dict__) for name, m in sys.modules.items()
                  if name == "qcycle" or name.startswith("qcycle.")}
    methods = {}
    for module, qualname in tracing.TRACED:
        owner, attr = _owner(module, qualname)
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{qualname} is not defined on its own class"
            methods[module, qualname] = owner.__dict__[attr]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, qualname in tracing.TRACED:
            owner, attr = _owner(module, qualname)
            if isinstance(owner, type):
                assert owner.__dict__[attr] is not methods[module, qualname]
            else:
                assert getattr(owner, attr) is not namespaces[f"qcycle.{module}"][attr]
    finally:
        tracer.uninstall()

    for (module, qualname), raw in methods.items():
        owner, attr = _owner(module, qualname)
        assert owner.__dict__[attr] is raw
    for name, before in namespaces.items():
        after = sys.modules[name].__dict__
        assert all(after[key] is value for key, value in before.items()), name
