import dataclasses
import inspect

import dynamap

# parameters of every exported function plus fields of every exported dataclass
SETTABLE_VALUES = 120


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from dynamap import *", namespace)
    for name in dynamap.__all__:
        assert namespace[name] is getattr(dynamap, name)
    assert dynamap.__all__ == sorted(set(dynamap.__all__))


def _settable_values(obj) -> int:
    if inspect.isfunction(obj):
        return len(inspect.signature(obj).parameters)
    if dataclasses.is_dataclass(obj):
        return len(dataclasses.fields(obj))
    return 0


def test_settable_values_do_not_grow():
    # a change that removes settable values lowers SETTABLE_VALUES to the new count
    total = sum(_settable_values(getattr(dynamap, name)) for name in dynamap.__all__)
    assert total <= SETTABLE_VALUES
