"""Small shared result and record types."""

from __future__ import annotations

from typing import Any


class _Record:
    """An immutable value record whose fields are its ``__slots__``, set once
    by a constructor that takes them in that order: records of one class
    with equal fields are equal and hash alike, and print as
    ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init__(self, *fields: Any):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:
        # Copies and pickles go through the constructor, which takes the
        # fields in slot order, since no field may be assigned afterwards.
        return type(self), self._fields()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"


class CheckReport:
    """Outcome of one verification check.

    ``details`` is human-readable; ``data`` carries machine-readable
    expected/observed values for report emission; ``first_failure`` is the
    first index at which an entry-wise check diverged, when that applies.
    """

    __slots__ = ("name", "passed", "details", "first_failure", "data")

    def __init__(
        self,
        name: str,
        passed: bool,
        details: str = "",
        first_failure: int | None = None,
        data: dict[str, Any] | None = None,
    ):
        self.name, self.passed, self.details = name, passed, details
        self.first_failure = first_failure
        self.data = {} if data is None else data

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        if self.data:
            out["data"] = self.data
        return out
