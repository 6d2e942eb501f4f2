"""Cheaper construction for frozen, slotted dataclasses.

A frozen dataclass's generated ``__init__`` assigns every field through
``object.__setattr__``, because the class's own ``__setattr__`` raises
:class:`dataclasses.FrozenInstanceError`.  That generic call looks the
attribute up again on every assignment.  A slotted class already holds
one member descriptor per field, and its ``__set__`` writes the slot
directly, so an ``__init__`` built on those descriptors does the same
work in about half the time.  The log front end builds one
:class:`~repro.logs.clf.CLFRecord` and one
:class:`~repro.sessions.model.Request` per log line, which is where this
pays.
"""

from __future__ import annotations

import dataclasses

__all__ = ["slot_init"]


def slot_init(cls: type) -> type:
    """Replace a frozen slotted dataclass's ``__init__`` with one that sets
    each field through its slot descriptor.

    Apply it on top of ``@dataclass(frozen=True, slots=True)``.  The new
    ``__init__`` has the same signature, defaults and annotations; the
    class stays frozen, and equality, hashing, ordering, ``repr`` and
    pickling are the dataclass's own.

    Raises:
        TypeError: for a class that is not a slotted dataclass, or one
            whose fields use ``default_factory``, ``init=False``,
            ``kw_only`` or ``__post_init__`` (none is supported).
    """
    if not dataclasses.is_dataclass(cls) or "__slots__" not in cls.__dict__:
        raise TypeError(f"{cls.__name__} is not a slotted dataclass")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} defines __post_init__")
    fields = dataclasses.fields(cls)
    namespace: dict[str, object] = {}
    params, body = [], []
    for field in fields:
        if (not field.init or field.kw_only is True
                or field.default_factory is not dataclasses.MISSING):
            raise TypeError(f"{cls.__name__}.{field.name}: unsupported field")
        param = field.name
        if field.default is not dataclasses.MISSING:
            namespace[f"_default_{field.name}"] = field.default
            param += f"=_default_{field.name}"
        params.append(param)
        namespace[f"_set_{field.name}"] = cls.__dict__[field.name].__set__
        body.append(f"    _set_{field.name}(self, {field.name})")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body),
         namespace)
    init = namespace["__init__"]
    init.__annotations__ = {field.name: field.type for field in fields}
    init.__annotations__["return"] = None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls
