"""Typed config fields, checked by one function.

A config dataclass gives each field an annotation that `describe` knows,
puts any bounds on its numbers in the field's metadata (`at_least`,
`within`), and calls `check` from its `__post_init__`.  JSON lists become
tuples; no other value is converted, so `0` stays `0`.  Non-finite numbers,
which `json.load` reads from `NaN` and `Infinity`, are rejected.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

# cached: get_type_hints takes 0.1-0.2 ms a class, a config load has 7
hints = functools.cache(typing.get_type_hints)
_NUMBERS = {int: int, float: (int, float)}
# the annotations `check` takes, besides Literal[str, ...] and dataclasses
_WORDS = {int: "an integer", float: "a number", bool: "a boolean",
          str: "a string", dict: "an object", float | None: "a number or null",
          tuple[int, int]: "a list of two integers",
          tuple[float, float]: "a list of two numbers",
          tuple[int, ...]: "a non-empty list of integers",
          tuple[tuple[int, ...], ...]:
              "a non-empty list of non-empty lists of integers"}


def _bounded(default, rule, test):
    return dataclasses.field(default=default, metadata={"bound": (rule, test)})


def at_least(low, *, default):
    return _bounded(default, f"be at least {low}", lambda x: low <= x)


def within(low, high, *, default, open=False):
    """low <= x <= high, or low < x < high if `open`."""
    if open:
        return _bounded(default, f"lie in ({low}, {high})",
                        lambda x: low < x < high)
    return _bounded(default, f"lie in [{low}, {high}]",
                    lambda x: low <= x <= high)


def describe(tp) -> str:
    """Annotation `tp` in words; a `KeyError` if `check` does not take it."""
    if typing.get_origin(tp) is typing.Literal:
        return f"one of {list(typing.get_args(tp))}"
    return f"a {tp.__name__}" if dataclasses.is_dataclass(tp) else _WORDS[tp]


class _Misfit(Exception):
    pass


def _fit(tp, v):
    """`v` as annotation `tp` takes it, or `_Misfit`."""
    if type(v) is tp:  # the common case, and no typing calls
        return v
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        return None if v is None else _fit(args[0], v)
    if origin is tuple:
        if isinstance(v, (list, tuple)) and \
                0 < len(v) == (len(v) if args[-1] is ... else len(args)):
            return tuple(_fit(args[0], x) for x in v)
    elif origin is typing.Literal:
        if v in args and isinstance(v, str):
            return v
    elif isinstance(v, _NUMBERS.get(tp, tp)) and \
            (tp is bool or not isinstance(v, bool)):
        return v
    raise _Misfit


def check(obj) -> None:
    """Fit every field of config dataclass `obj` to its annotation and
    bound, or raise a `ValueError` that names the field.  A non-finite
    number is reported as such, and a bounded number of the wrong type
    against the bound."""
    for f in dataclasses.fields(obj):
        value, tp = getattr(obj, f.name), hints(type(obj))[f.name]
        items = value if isinstance(value, (list, tuple)) else (value,)
        if any(isinstance(x, float) and not math.isfinite(x) for x in items):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        if "bound" in f.metadata and value is not None:
            rule, test = f.metadata["bound"]
            listed = typing.get_origin(tp) is tuple
            kind = _NUMBERS[(typing.get_args(tp) or (tp,))[0]]
            items = (value,) if not listed else \
                value if isinstance(value, (list, tuple)) else ()
            for i, x in enumerate(items):
                if isinstance(x, bool) or not isinstance(x, kind) or \
                        not test(x):
                    got = f"{f.name}[{i}]={x!r}" if listed else repr(x)
                    raise ValueError(f"{f.name} must {rule}, got {got}")
        try:
            setattr(obj, f.name, _fit(tp, value))
        except _Misfit:
            raise ValueError(f"{f.name}: expected {describe(tp)}, "
                             f"got {value!r}") from None
