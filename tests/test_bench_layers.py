"""The benchmark's tracer rebinds package functions by name; each must resolve,
and tracing must leave the package as it found it."""

import importlib
import importlib.util
import sys
from pathlib import Path

import floercone.cli  # noqa: F401  (imports every module the tracer rebinds)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer_keys(tracing) -> list[tuple[str, ...]]:
    """Where each layer lives: (module, function) or (module, class, method)."""
    return [(f"floercone.{mod}", *attr.split(".")) for mod, attr, *_ in tracing.LAYERS]


def package_bindings() -> dict[tuple[str, ...], object]:
    """Every name in every floercone module, and in every class it defines."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "floercone" or name.startswith("floercone.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_every_layer_resolves():
    for key in layer_keys(load_tracing()):
        home = importlib.import_module(key[0])
        if len(key) == 3:
            assert key[2] in getattr(home, key[1]).__dict__, key
        else:
            assert callable(getattr(home, key[1], None)), key


def test_install_then_uninstall_restores_every_binding():
    tracing = load_tracing()
    before = package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = package_bindings()
        assert [key for key in layer_keys(tracing) if during[key] is before[key]] == []
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
