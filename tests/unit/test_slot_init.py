"""The descriptor-built ``__init__`` of ``CLFRecord`` and ``Request`` keeps
the construction contract of a plain frozen slotted dataclass.

Each class is checked against a twin declared with the same fields under
a plain ``@dataclass(frozen=True, slots=True)``: signature and defaults,
positional and keyword construction, frozenness, equality, hashing,
ordering, ``repr``, pickling, ``copy.copy``, ``dataclasses.replace`` and
``__match_args__``.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import itertools
import pickle
from dataclasses import dataclass, field

import pytest

from repro._slots import slot_init
from repro.logs.clf import CLFRecord
from repro.sessions.model import Request


class Twin:
    @dataclass(frozen=True, slots=True)
    class CLFRecord:
        host: str
        timestamp: float
        method: str
        url: str
        protocol: str
        status: int
        size: int | None
        ident: str = "-"
        authuser: str = "-"
        referrer: str | None = None
        user_agent: str | None = None

    @dataclass(frozen=True, slots=True, order=True)
    class Request:
        timestamp: float
        user_id: str
        page: str
        synthetic: bool = field(default=False, compare=False)
        referrer: str | None = field(default=None, compare=False)


#: (class, twin, argument tuples): full, partial (defaults), and pairs
#: that differ only in compared or only in ignored fields.
CASES = [
    (CLFRecord, Twin.CLFRecord, [
        ("10.0.0.1", 5.0, "GET", "/P1.html", "HTTP/1.1", 200, 512),
        ("10.0.0.1", 5.0, "GET", "/P1.html", "HTTP/1.1", 200, None,
         "id", "user", "/P0.html", "Mozilla"),
        ("10.0.0.1", 5.0, "GET", "/P1.html", "HTTP/1.1", 200, 512,
         "-", "-", "/P0.html"),
        ("10.0.0.2", 4.0, "POST", "/P2.html", "HTTP/1.0", 404, 0),
    ]),
    (Request, Twin.Request, [
        (1.0, "u1", "P1"),
        (1.0, "u1", "P1", True, "P0"),
        (1.0, "u1", "P2"),
        (0.5, "u2", "P1", False, "P9"),
        (1.0, "u0", "P1"),
    ]),
]
IDS = ["CLFRecord", "Request"]


def _values(instance):
    return tuple(getattr(instance, f.name)
                 for f in dataclasses.fields(instance))


def _outcome(operation):
    try:
        return ("ok", operation())
    except TypeError:
        return ("TypeError",)


@pytest.mark.parametrize("cls, twin, samples", CASES, ids=IDS)
class TestConstructionContract:
    def test_signature_and_defaults(self, cls, twin, samples):
        assert inspect.signature(cls) == inspect.signature(twin)
        assert (inspect.signature(cls.__init__)
                == inspect.signature(twin.__init__))
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        for args in samples:
            assert _values(cls(*args)) == _values(twin(*args))

    def test_keyword_construction(self, cls, twin, samples):
        names = [f.name for f in dataclasses.fields(cls)]
        for args in samples:
            kwargs = dict(zip(names, args))
            assert _values(cls(**kwargs)) == _values(twin(**kwargs))
        with pytest.raises(TypeError):
            cls(*samples[0], **{names[0]: samples[0][0]})
        with pytest.raises(TypeError):
            cls()

    def test_frozen_on_every_field(self, cls, twin, samples):
        instance = cls(*samples[1])
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(instance, f.name)
        assert _values(instance) == _values(twin(*samples[1]))
        assert not hasattr(instance, "__dict__")

    def test_eq_hash_order(self, cls, twin, samples):
        for a, b in itertools.product(samples, repeat=2):
            mine, theirs = (cls(*a), cls(*b)), (twin(*a), twin(*b))
            assert (mine[0] == mine[1]) == (theirs[0] == theirs[1])
            assert ((hash(mine[0]) == hash(mine[1]))
                    == (hash(theirs[0]) == hash(theirs[1])))
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert (_outcome(lambda: getattr(mine[0], op)(mine[1]))
                        == _outcome(lambda: getattr(theirs[0], op)(
                            theirs[1])))

    def test_repr_pickle_copy_replace(self, cls, twin, samples):
        for args in samples:
            instance, reference = cls(*args), twin(*args)
            assert repr(instance) == repr(reference).replace("Twin.", "")
            for clone in (pickle.loads(pickle.dumps(instance)),
                          copy.copy(instance), copy.deepcopy(instance)):
                assert type(clone) is cls
                assert _values(clone) == _values(instance)
            first = dataclasses.fields(cls)[0].name
            replaced = dataclasses.replace(instance, **{first: args[1]})
            assert (_values(replaced) == _values(
                dataclasses.replace(reference, **{first: args[1]})))
        assert cls.__match_args__ == twin.__match_args__


def test_slot_init_rejects_unsupported_classes():
    @dataclass(frozen=True)
    class NoSlots:
        x: int

    @dataclass(frozen=True, slots=True)
    class Factory:
        x: list = field(default_factory=list)

    @dataclass(frozen=True, slots=True)
    class PostInit:
        x: int

        def __post_init__(self):
            pass

    for cls in (NoSlots, Factory, PostInit):
        with pytest.raises(TypeError):
            slot_init(cls)
