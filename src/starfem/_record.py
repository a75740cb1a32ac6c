"""Read-only records with hand-written constructors.

A frozen dataclass is built at import by ``exec``-ing generated methods,
about a millisecond a class. A ``Record`` subclass instead writes its
``__init__`` and stores its fields with ``_set``; this base makes them
read-only and adds ``replace`` and a ``repr``. Plain value records are
``typing.NamedTuple``s.
"""
from __future__ import annotations


class Record:
    """Fields set once by ``__init__`` through ``_set``, read-only after."""

    def _set(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def replace(self, **changes):
        """A copy with some fields changed, checked as the constructor checks."""
        return type(self)(**{**self.__dict__, **changes})

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__name__}({fields})"
