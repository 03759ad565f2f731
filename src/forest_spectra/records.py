"""Frozen records: the annotated fields, defaults, equality, hash and text of
frozen dataclasses, plus a ``__dict__`` for caches and a checked ``_replace``."""

from operator import attrgetter


class Record:
    def __init_subclass__(cls) -> None:
        cls._fields = names = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in names if f in vars(cls)}
        get = attrgetter(*names)  # a lone field comes bare, not in a 1-tuple
        cls._values = (lambda self: (get(self),)) if len(names) == 1 else (lambda self: get(self))

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            rest, given = names[len(args) :], {**self._defaults, **kwargs}
            if len(args) > len(names) or not kwargs.keys() <= {*rest} <= given.keys():
                raise TypeError(f"{type(self).__qualname__}{names}: argument missing, repeated or unknown")
            args += tuple(map(given.__getitem__, rest))
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _replace(self, **changes) -> "Record":
        return type(self)(*[changes.pop(f, v) for f, v in zip(self._fields, self._values())], **changes)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__
