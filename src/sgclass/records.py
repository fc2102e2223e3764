"""The frozen-record base of the package's value types.

A record is a ``__slots__`` class whose hand-written ``__init__`` stores each
field once through ``_set``; after that, assigning or deleting an attribute
raises ``AttributeError``.  Two records are equal when they are of the same
class and their keys are equal; the key is the tuple of the fields named by
the class keyword ``compared`` (all of ``__slots__`` by default), and ``hash``
reads the same key.  ``repr`` is ``Name(field=value, ...)`` over the slots not
named by ``hidden``.  This is what ``dataclass(frozen=True)`` generated; the
records are written by hand because importing ``dataclasses`` (it loads
``inspect``, ``ast``, ``dis`` and ``tokenize``) and building the generated
methods was the largest cost of a CLI start under the package's control.
"""

from __future__ import annotations

# stores a field on a record while its __init__ runs
_set = object.__setattr__


def _key_methods(names: tuple[str, ...]) -> dict:
    """``__eq__`` and ``__hash__`` over the tuple of the fields ``names``.

    They are compiled per class, as ``dataclasses`` does, because reading the
    fields by name in the function body is faster than any generic getter
    (under Python 3.11, ``operator.attrgetter`` made ``==`` about 1.8 times
    slower)."""
    mine = "".join(f"self.{name}, " for name in names)
    theirs = "".join(f"other.{name}, " for name in names)
    namespace: dict = {}
    exec("def __eq__(self, other):\n"
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
        methods = _key_methods(compared or cls.__slots__)
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
        # rebuilt through __init__, which takes every slot in order
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)
