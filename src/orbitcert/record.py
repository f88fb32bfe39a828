"""The immutable value record that the engine's input and result types share.

A subclass binds its fields once in ``__init__`` with
``self.__dict__.update(...)``; from then on assignment and deletion raise
AttributeError.  Two records are equal when they are of the same class and
their fields are equal, and the hash and the ``Name(field=value, ...)``
repr read the same fields in the order they were bound.  Instances keep a
``__dict__``, so ``pickle`` and ``copy.deepcopy`` restore them without
calling ``__init__`` or ``__setattr__``.  Both halves of the engine use it,
and it imports neither.
"""


class Record:
    """Fields bound once by the subclass's ``__init__``; compared by value."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__name__}({fields})"
