"""The MultiType dynamic-value model (paper Fig. 5) and bounded input spaces.

The paper encodes Python's dynamic values into a SKETCH ``MultiType`` struct
carrying a type flag plus per-type payload. Our interpreter runs on native
Python values for speed, but this module preserves the MultiType *model*:

- :class:`MTFlag` — the paper's flag set,
- :func:`mt_flag` — dynamic type flag of a runtime value,
- :func:`to_multitype` / :func:`from_multitype` — explicit boxed encoding,
  used in tests to demonstrate the encoding round-trips,
- the :class:`TypeSig` hierarchy and :func:`enumerate_values` — typed,
  exhaustively enumerable bounded input spaces (the ">2^16 inputs" the
  paper's harness checks, Section 2.3).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from repro.mpy.errors import MPYError


class MTFlag(enum.Enum):
    """Dynamic type tags, exactly the set of paper Fig. 5."""

    INTEGER = "INTEGER"
    BOOL = "BOOL"
    STRING = "STRING"
    LIST = "LIST"
    TUPLE = "TUPLE"
    DICTIONARY = "DICTIONARY"
    NONE = "NONE"
    FUNC = "FUNC"


def mt_flag(value) -> MTFlag:
    """Return the MultiType flag of a native runtime value."""
    # bool before int: Python's bool subclasses int.
    if isinstance(value, bool):
        return MTFlag.BOOL
    if isinstance(value, int):
        return MTFlag.INTEGER
    if isinstance(value, str):
        return MTFlag.STRING
    if isinstance(value, list):
        return MTFlag.LIST
    if isinstance(value, tuple):
        return MTFlag.TUPLE
    if isinstance(value, dict):
        return MTFlag.DICTIONARY
    if value is None:
        return MTFlag.NONE
    if callable(value):
        return MTFlag.FUNC
    raise MPYError(f"value outside the MultiType model: {value!r}")


@dataclass(frozen=True)
class MultiType:
    """An explicit boxed MultiType value, mirroring the SKETCH struct.

    ``val`` holds an integer payload, ``bval`` a boolean payload, ``lst`` /
    ``tup`` / ``str_`` / ``dict_`` the composite payloads. Exactly one payload
    is meaningful, selected by ``flag``.
    """

    flag: MTFlag
    val: int = 0
    bval: bool = False
    str_: str = ""
    lst: Tuple["MultiType", ...] = ()
    tup: Tuple["MultiType", ...] = ()
    dict_: Tuple[Tuple["MultiType", "MultiType"], ...] = ()


def to_multitype(value) -> MultiType:
    """Box a native value into the explicit MultiType encoding."""
    flag = mt_flag(value)
    if flag is MTFlag.INTEGER:
        return MultiType(flag=flag, val=value)
    if flag is MTFlag.BOOL:
        return MultiType(flag=flag, bval=value)
    if flag is MTFlag.STRING:
        return MultiType(flag=flag, str_=value)
    if flag is MTFlag.LIST:
        return MultiType(flag=flag, lst=tuple(to_multitype(v) for v in value))
    if flag is MTFlag.TUPLE:
        return MultiType(flag=flag, tup=tuple(to_multitype(v) for v in value))
    if flag is MTFlag.DICTIONARY:
        return MultiType(
            flag=flag,
            dict_=tuple(
                (to_multitype(k), to_multitype(v)) for k, v in value.items()
            ),
        )
    if flag is MTFlag.NONE:
        return MultiType(flag=flag)
    raise MPYError(f"cannot box value of flag {flag}")


def from_multitype(boxed: MultiType):
    """Unbox an explicit MultiType value back to a native value."""
    if boxed.flag is MTFlag.INTEGER:
        return boxed.val
    if boxed.flag is MTFlag.BOOL:
        return boxed.bval
    if boxed.flag is MTFlag.STRING:
        return boxed.str_
    if boxed.flag is MTFlag.LIST:
        return [from_multitype(v) for v in boxed.lst]
    if boxed.flag is MTFlag.TUPLE:
        return tuple(from_multitype(v) for v in boxed.tup)
    if boxed.flag is MTFlag.DICTIONARY:
        return {from_multitype(k): from_multitype(v) for k, v in boxed.dict_}
    if boxed.flag is MTFlag.NONE:
        return None
    raise MPYError(f"cannot unbox value of flag {boxed.flag}")


#: Runtime value types that are never copied (immutable scalars).
ATOMIC_TYPES = frozenset((int, bool, float, str, type(None)))


def clone_value(value):
    """Deep-copy a runtime value so callee mutation cannot leak across runs."""
    if isinstance(value, list):
        return [
            v if type(v) in ATOMIC_TYPES else clone_value(v) for v in value
        ]
    if isinstance(value, tuple):
        return tuple(
            [v if type(v) in ATOMIC_TYPES else clone_value(v) for v in value]
        )
    if isinstance(value, dict):
        return {k: clone_value(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# Typed bounded input spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    """Bounds of the verification input space.

    The paper's experiments use ``int_bits=4`` and ``max_list_len=4``
    (Section 5.3). Strings are bounded by an alphabet and a maximum length,
    which is how we model the hangman problems' secret words.
    """

    int_bits: int = 4
    max_list_len: int = 4
    min_list_len: int = 0
    str_alphabet: str = "abc"
    max_str_len: int = 3
    min_str_len: int = 0

    def int_range(self) -> range:
        half = 1 << (self.int_bits - 1)
        return range(-half, half)

    def nonneg_int_range(self) -> range:
        return range(0, 1 << (self.int_bits - 1))


class TypeSig:
    """Base class of argument type signatures."""

    def enumerate(self, bounds: Bounds) -> Iterator:
        raise NotImplementedError

    def count(self, bounds: Bounds) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class IntType(TypeSig):
    """Bounded signed integers; ``nonneg=True`` restricts to naturals, and
    ``positive=True`` further excludes zero (useful for exponent/divisor
    arguments where the reference itself is undefined otherwise)."""

    nonneg: bool = False
    positive: bool = False

    def enumerate(self, bounds: Bounds) -> Iterator[int]:
        if self.positive:
            yield from range(1, 1 << (bounds.int_bits - 1))
        elif self.nonneg:
            yield from bounds.nonneg_int_range()
        else:
            yield from bounds.int_range()

    def count(self, bounds: Bounds) -> int:
        if self.positive:
            return (1 << (bounds.int_bits - 1)) - 1
        if self.nonneg:
            return 1 << (bounds.int_bits - 1)
        return 1 << bounds.int_bits


@dataclass(frozen=True)
class BoolType(TypeSig):
    def enumerate(self, bounds: Bounds) -> Iterator[bool]:
        yield False
        yield True

    def count(self, bounds: Bounds) -> int:
        return 2


@dataclass(frozen=True)
class StrType(TypeSig):
    def enumerate(self, bounds: Bounds) -> Iterator[str]:
        for length in range(bounds.min_str_len, bounds.max_str_len + 1):
            for chars in itertools.product(bounds.str_alphabet, repeat=length):
                yield "".join(chars)

    def count(self, bounds: Bounds) -> int:
        k = len(bounds.str_alphabet)
        return sum(
            k**length
            for length in range(bounds.min_str_len, bounds.max_str_len + 1)
        )


@dataclass(frozen=True)
class ListType(TypeSig):
    elem: TypeSig = field(default_factory=IntType)
    min_len: Optional[int] = None
    max_len: Optional[int] = None

    def _len_range(self, bounds: Bounds) -> range:
        lo = bounds.min_list_len if self.min_len is None else self.min_len
        hi = bounds.max_list_len if self.max_len is None else self.max_len
        return range(lo, hi + 1)

    def enumerate(self, bounds: Bounds) -> Iterator[list]:
        elems = list(self.elem.enumerate(bounds))
        for length in self._len_range(bounds):
            for combo in itertools.product(elems, repeat=length):
                yield [clone_value(v) for v in combo]

    def count(self, bounds: Bounds) -> int:
        k = self.elem.count(bounds)
        return sum(k**length for length in self._len_range(bounds))


@dataclass(frozen=True)
class TupleType(TypeSig):
    elem: TypeSig = field(default_factory=IntType)
    min_len: Optional[int] = None
    max_len: Optional[int] = None

    def _len_range(self, bounds: Bounds) -> range:
        lo = bounds.min_list_len if self.min_len is None else self.min_len
        hi = bounds.max_list_len if self.max_len is None else self.max_len
        return range(lo, hi + 1)

    def enumerate(self, bounds: Bounds) -> Iterator[tuple]:
        elems = list(self.elem.enumerate(bounds))
        for length in self._len_range(bounds):
            yield from itertools.product(elems, repeat=length)

    def count(self, bounds: Bounds) -> int:
        k = self.elem.count(bounds)
        return sum(k**length for length in self._len_range(bounds))


@dataclass(frozen=True)
class CharListType(TypeSig):
    """Lists of single-character strings (hangman's ``lettersGuessed``)."""

    max_len: Optional[int] = None

    def enumerate(self, bounds: Bounds) -> Iterator[list]:
        hi = bounds.max_list_len if self.max_len is None else self.max_len
        for length in range(0, hi + 1):
            for combo in itertools.product(bounds.str_alphabet, repeat=length):
                yield list(combo)

    def count(self, bounds: Bounds) -> int:
        k = len(bounds.str_alphabet)
        hi = bounds.max_list_len if self.max_len is None else self.max_len
        return sum(k**length for length in range(0, hi + 1))


_SUFFIXES = {
    "int": IntType(),
    "bool": BoolType(),
    "str": StrType(),
    "list_int": ListType(IntType()),
    "tuple_int": TupleType(IntType()),
    "list_str": CharListType(),
}


def parse_type_suffix(arg_name: str) -> Tuple[str, Optional[TypeSig]]:
    """Split a paper-style typed argument name into (base name, type).

    The paper's instructors append types to argument names, e.g.
    ``poly_list_int`` is a list-of-int argument named ``poly`` (Section 2.1).
    Returns ``(arg_name, None)`` when no known suffix matches.
    """
    for suffix in sorted(_SUFFIXES, key=len, reverse=True):
        marker = "_" + suffix
        if arg_name.endswith(marker) and len(arg_name) > len(marker):
            return arg_name[: -len(marker)], _SUFFIXES[suffix]
    return arg_name, None


def input_space(arg_types: Tuple[TypeSig, ...], bounds: Bounds) -> Iterator[tuple]:
    """Enumerate every argument tuple of the bounded input space."""
    spaces = [list(t.enumerate(bounds)) for t in arg_types]
    for combo in itertools.product(*spaces):
        yield tuple(clone_value(v) for v in combo)


def input_space_size(arg_types: Tuple[TypeSig, ...], bounds: Bounds) -> int:
    """Number of argument tuples in the bounded input space."""
    size = 1
    for t in arg_types:
        size *= t.count(bounds)
    return size
