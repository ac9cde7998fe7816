"""Frozen value records, the part of frozen dataclasses this package uses.

`record` turns a class with annotated fields into an immutable value
type: positional or keyword construction, equality only between
instances of the same class, a hash that agrees with it, and the
dataclass repr text `Name(field=value, ...)`.  The methods are compiled
from one generated source per class, as `collections.namedtuple` does,
so construction and comparison cost what hand-written methods cost, and
importing the package does not load `dataclasses` and `inspect`.
"""


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r}")


def record(cls):
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    own = "".join(f"self.{f}, " for f in fields)
    other = "".join(f"other.{f}, " for f in fields)
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    stores = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
    source = (
        f"def __init__(self, {', '.join(fields)}):{stores}\n"
        f"def __eq__(self, other):\n"
        f"    if other.__class__ is self.__class__:\n        return ({own}) == ({other})\n"
        f"    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({own}))\n"
        f"def __repr__(self):\n    return f'{{self.__class__.__qualname__}}({shown})'\n"
    )
    namespace = {}
    exec(source, {"_set": object.__setattr__}, namespace)
    for name, fn in namespace.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls._fields = fields  # the field names, in order
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
