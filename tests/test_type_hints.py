"""Every dataclass in ``repro`` has annotations that resolve.

With ``from __future__ import annotations`` a field annotation is a
string that nothing evaluates until someone asks for it, so a name the
module forgot to import (``Optional``, say) passes every construction
and fails only in ``typing.get_type_hints`` -- the call that
``dataclasses`` tooling, serializers and documentation generators make.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import repro


def _repro_dataclasses():
    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and dataclasses.is_dataclass(obj)
                and obj.__module__.startswith("repro.")
            ):
                classes[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return classes


def test_every_dataclass_annotation_resolves():
    classes = _repro_dataclasses()
    assert len(classes) > 50  # the walk reached the whole package
    unresolved = {}
    for name, cls in sorted(classes.items()):
        try:
            typing.get_type_hints(cls)
        except Exception as exc:  # NameError, TypeError on 3.9's X | None
            unresolved[name] = repr(exc)
    assert unresolved == {}
