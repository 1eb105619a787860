"""Frozen value records, built without generating code.

A record class declares its fields once, as class annotations in order,
each with an optional default as a class attribute.  Its public fields are
its value: they give equality (``NotImplemented`` against any other class),
the hash, and the repr ``Cls(field=value, ...)``, in declaration order.  A
class may define a cheaper hash of its own, which it keeps; it must agree
with the value equality (equal records hash equal).  A field whose name
starts with an underscore is kept out of all three.  It is either a plain
field handed over at construction, with or without a default, or a cache,
declared ``_name: type = cached(build)``, whose value ``build(record)``
reads off the record's fields.  A class that writes its own ``__init__``
may declare a public field with `cached` too (``IsotropicSubspace.basis``):
it stays part of the value, so equality, the hash and the repr build it on
first read.

Every underscore field is written by one protocol, this module's.
Assigning or deleting an attribute raises AttributeError.  A cache takes
its value from the first of: a constructor it is handed to, the shared
constructor for a cache declared ``cached(build, eager=True)``, and its
first read.  A read that finds no value builds one and writes it into the
record, where it shadows the `cached` descriptor, so later reads are plain
attribute reads.  Two threads that read a fresh cache may both build it;
they write equal values, so the write is idempotent and records stay safe
to share between threads.  A builder that raises writes nothing, so a
record it refuses is refused again on the next read.  A reader that must
not build asks ``vars(record)``, which holds a cache once it is written
(and moves the record's values into a dict, see below).

The shared constructor takes the public fields, by position or keyword,
and the underscore fields by keyword.  It writes the public fields, then
each underscore field it is handed and each eager cache it is not, built
from the public fields as given, then runs ``__post_init__``, which a
class may define to check them.  A class built thousands of times per
pass writes its own ``__init__``: it takes its handovers as keywords too,
``_name=None``, and writes a given one with `keep`, which is
``object.__setattr__`` itself, so a handover costs a direct write.  Every
constructor writes the fields in declaration order, public fields before
underscore ones, because a builder reads the public fields.  It writes
with ``object.__setattr__`` and never reads ``self.__dict__``: that turns
the record's inline attribute values into a dict, and every later
attribute read is slower (the order of the writes does not, on CPython
3.11).
"""

from __future__ import annotations

from operator import attrgetter

# a constructor hands a record a cache's value (or a plain field's) with this
keep = object.__setattr__


class cached:
    """The declaration of a cache field: ``build(record)`` makes its value
    on first read, or at construction when ``eager``."""

    def __init__(self, build, eager: bool = False):
        self.build, self.eager = build, eager

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = self.build(record)
        keep(record, self.name, value)
        return value


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
        hidden = [n for n in cls.__annotations__ if n.startswith("_")]
        cls._declared = names + tuple(hidden)
        cls._eager = {n: cls.__dict__[n].build for n in hidden if getattr(cls.__dict__.get(n), "eager", False)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments but {len(args)} were given")
        set_ = object.__setattr__
        for name, value in zip(names, args):
            set_(self, name, value)
        # the others, public then underscore: handed over, a public default, an
        # eager cache built, or left to the class (a lazy cache, a plain default)
        for name in cls._declared[len(args) :]:
            if name in kwargs:
                set_(self, name, kwargs.pop(name))
            elif name in cls._defaults:
                set_(self, name, cls._defaults[name])
            elif name in cls._eager:
                set_(self, name, cls._eager[name](self))
            elif name not in cls.__dict__:
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
