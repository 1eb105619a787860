"""Frozen value records, built without generating code.

A record class declares its fields once, as class annotations in order,
each with an optional default as a class attribute.  Its public fields are
its value: they give equality (``NotImplemented`` against any other class),
the hash, and the repr ``Cls(field=value, ...)``, in declaration order.  A
class may define a cheaper hash of its own, which it keeps; it must agree
with the value equality (equal records hash equal).  A
field whose name starts with an underscore is a cache, kept out of all
three.  Assigning or deleting an attribute raises AttributeError, so a
cache is written with ``object.__setattr__``.

The shared constructor takes the public fields, by position or keyword,
then runs ``__post_init__``, which a class may define to check them.  A
class built thousands of times per pass, or whose caches need values at
construction, writes its own ``__init__``.  Every constructor writes its
fields in declaration order with ``object.__setattr__``: reading
``self.__dict__`` would turn the instance's inline attribute values into a
dict, and every later attribute read would be several times slower.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(n for n in cls.__annotations__ if not n.startswith("_"))
        # the value is a tuple, also of one field: the hash is that of the field tuple
        get = attrgetter(*names)
        if len(names) == 1:
            get = lambda self, one=get: (one(self),)  # noqa: E731

        # closures over the getter: no method lookup on each call
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash(get(self))

        cls.__eq__ = __eq__
        # a class keeps a hash of its own (Python writes None for a class
        # that defines __eq__ alone)
        if cls.__dict__.get("__hash__") is None:
            cls.__hash__ = __hash__
        cls._fields = names
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments but {len(args)} were given")
        set_ = object.__setattr__
        for name, value in zip(names, args):
            set_(self, name, value)
        for name in names[len(args) :]:
            if name in kwargs:
                set_(self, name, kwargs.pop(name))
            elif name in cls._defaults:
                set_(self, name, cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        """Checks run after the shared constructor; a class may add some."""

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
