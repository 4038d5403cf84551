"""Documentation coverage: every public module, class, and function in
the library carries a docstring."""

import importlib
import inspect
import pkgutil

import repro

EXEMPT_NAME_PREFIXES = ("_",)


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        yield importlib.import_module(info.name)


def public_members(module):
    for name, obj in vars(module).items():
        if name.startswith(EXEMPT_NAME_PREFIXES):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their definition
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def test_every_module_has_docstring():
    missing = [m.__name__ for m in iter_modules() if not m.__doc__]
    assert not missing, f"modules missing docstrings: {missing}"


def test_every_public_class_and_function_has_docstring():
    missing = []
    for module in iter_modules():
        for name, obj in public_members(module):
            if not inspect.getdoc(obj):
                missing.append(f"{module.__name__}.{name}")
    assert not missing, f"undocumented public items: {missing}"


def test_public_methods_documented_on_key_classes():
    """The user-facing API surface must be fully documented."""
    from repro.core.coreengine import CoreEngine
    from repro.core.guestlib import GuestLib
    from repro.core.host import NetKernelHost
    from repro.core.servicelib import ServiceLib
    from repro.core.sharding import ShardedCoreEngine
    from repro.stack.tcp.engine import TcpEngine

    missing = []
    for cls in (NetKernelHost, CoreEngine, ShardedCoreEngine, GuestLib,
                ServiceLib, TcpEngine):
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            if not inspect.getdoc(member):
                missing.append(f"{cls.__name__}.{name}")
    assert not missing, f"undocumented public methods: {missing}"
