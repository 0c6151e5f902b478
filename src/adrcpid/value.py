"""The one base of the package's value types.

A ``Value``'s fields are the names annotated in its class body, in order.
Its ``__init__`` checks its arguments and writes the fields into the
instance ``__dict__``; after that ``__setattr__`` and ``__delattr__`` refuse
every name.  ``==``, ``hash`` and ``repr`` go by the fields, as a frozen
dataclass's do, or ``==`` and ``hash`` by identity for a class declared with
``eq=False``.  A ``cached_property`` still caches, because it too writes the
instance ``__dict__``.

The package has no dataclass besides the command-line config: building one
execs its generated methods, and importing ``dataclasses`` loads
``inspect``, which every fresh process of a short command would pay.  This
module imports nothing, so that every layer can import it without loading
another.
"""


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
