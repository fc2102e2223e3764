"""The frozen-record base of the package's value types.

A record is a ``__slots__`` class.  For each subclass the base compiles
``__init__(self, <slots in order>)``, which stores each field once through
``_set``, and ``__eq__`` and ``__hash__``; after ``__init__``, assigning or
deleting an attribute raises ``AttributeError``.  A class writes its own
``__init__`` only to validate, convert or default its input, and then stores
each field through ``_set`` itself.  Two records are equal when they are of
the same class and their keys are equal; the key is the tuple of the fields
named by the class keyword ``compared`` (all of ``__slots__`` by default),
and ``hash`` reads the same key.  ``repr`` is ``Name(field=value, ...)`` over
the slots not named by ``hidden``.  This is what ``dataclass(frozen=True)``
generated; the base compiles the methods itself because importing
``dataclasses`` (it loads ``inspect``, ``ast``, ``dis`` and ``tokenize``) and
building the generated methods was the largest cost of a CLI start under the
package's control.
"""

from __future__ import annotations

# stores a field on a record while its __init__ runs
_set = object.__setattr__


def _methods(fields: tuple[str, ...], compared: tuple[str, ...]) -> dict:
    """``__init__`` storing ``fields`` in order, if any, and ``__eq__`` and
    ``__hash__`` over the tuple of the fields ``compared``.

    They are compiled per class, as ``dataclasses`` does, because reading the
    fields by name in the function body is faster than any generic getter
    (under Python 3.11, ``operator.attrgetter`` made ``==`` about 1.8 times
    slower)."""
    params = "".join(f", {name}" for name in fields)
    stores = "".join(f"    _set(self, {name!r}, {name})\n" for name in fields)
    mine = "".join(f"self.{name}, " for name in compared)
    theirs = "".join(f"other.{name}, " for name in compared)
    namespace: dict = {"_set": _set}
    init = f"def __init__(self{params}):\n{stores}" if fields else ""
    exec(init +
         "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n"
         "    return NotImplemented\n"
         "def __hash__(self):\n"
         f"    return hash(({mine}))\n", namespace)
    return namespace


class Record:
    __slots__ = ()

    def __init_subclass__(cls, compared: tuple[str, ...] = (),
                          hidden: tuple[str, ...] = ()):
        super().__init_subclass__()
        stored = () if "__init__" in cls.__dict__ else cls.__slots__
        methods = _methods(stored, compared or cls.__slots__)
        if stored:
            init = methods["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"  # named by a TypeError
            cls.__init__ = init
        cls.__eq__, cls.__hash__ = methods["__eq__"], methods["__hash__"]
        cls._shown = tuple(name for name in cls.__slots__ if name not in hidden)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__: the compiled one takes every slot in order,
        # and each hand-written one takes them in the same order
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)
