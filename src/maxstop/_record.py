"""The base of the records that check their fields.

Every record is a `typing.NamedTuple`.  One that checks its fields
subclasses its NamedTuple after `Checked`, with `__slots__ = ()`, and
defines `_check`, which raises ValueError on bad fields.  `Checked` runs it
on every construction path: the constructor, pickle and copy (which call
`__new__`), `_make`, and `_replace` (which calls `_make`); a namedtuple's
own `_make` calls `tuple.__new__` and would skip it.
"""


class Checked:
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
