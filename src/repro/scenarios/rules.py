"""Field rules for the declarative specs, written once next to each field.

A spec dataclass declares a numeric or choice field with :func:`real`,
:func:`integer` or :func:`choice` in place of a bare default; the rule rides
in the field's metadata, and every spec's ``__post_init__`` calls
:func:`check`, the one place the rules are enforced.  The contract:

* a numeric value is a finite real number and not a bool; an integer rule
  also needs :class:`numbers.Integral`, so numpy integers pass while ``nan``
  and ``2.5`` fail;
* a mapping-valued field (``each=True``) holds every value to the rule and
  names a failing value after the field's singular (``weights`` ->
  ``weight for 'tablet'``);
* ``None`` passes only where the field's default is ``None``;
* a failure raises ``ValueError("<field> must be <rule>, got <value>")``.

The checker never rewrites a value, so a spec's dict form and hash stay what
the caller passed.  Rules that relate two fields stay as plain code in the
specs; :class:`FractionWindow` is the one such rule shared by three specs.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import MISSING, dataclass
from typing import Any, Mapping, Optional, Tuple

#: The field-metadata key a rule is stored under.
RULE = "rule"


@dataclass(frozen=True)
class Rule:
    """One field's constraint: a numeric range or a fixed set of choices."""

    integer: bool = False
    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_open: bool = False
    hi_open: bool = False
    choices: Tuple[Any, ...] = ()
    each: bool = False

    def accepts(self, value: Any) -> bool:
        if self.choices:
            return value in self.choices
        kind = numbers.Integral if self.integer else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            return False
        if not (isinstance(value, numbers.Integral) or math.isfinite(value)):
            return False
        if self.lo is not None and not (value > self.lo if self.lo_open else value >= self.lo):
            return False
        return self.hi is None or (value < self.hi if self.hi_open else value <= self.hi)

    def __str__(self) -> str:
        if self.choices:
            return f"one of {self.choices}"
        if self.lo is not None and self.hi is not None:
            return (
                f"in {'(' if self.lo_open else '['}{self.lo:g}, "
                f"{self.hi:g}{')' if self.hi_open else ']'}"
            )
        if self.lo is not None:
            bound = "positive" if self.lo == 0 and self.lo_open else (
                f"{'>' if self.lo_open else '>='} {self.lo:g}"
            )
        elif self.hi is not None:
            bound = f"{'<' if self.hi_open else '<='} {self.hi:g}"
        else:
            return "an integer" if self.integer else "a finite number"
        return f"{bound} and {'integral' if self.integer else 'finite'}"


def _field(rule: Rule, default: Any, default_factory: Any) -> Any:
    return dataclasses.field(
        default=default, default_factory=default_factory, metadata={RULE: rule}
    )


def real(
    default: Any = MISSING,
    *,
    gt: Optional[float] = None,
    ge: Optional[float] = None,
    lt: Optional[float] = None,
    le: Optional[float] = None,
    each: bool = False,
    default_factory: Any = MISSING,
) -> Any:
    """A finite real field, bounded by ``gt``/``ge`` below and ``lt``/``le`` above."""
    rule = Rule(
        lo=ge if gt is None else gt,
        hi=le if lt is None else lt,
        lo_open=gt is not None,
        hi_open=lt is not None,
        each=each,
    )
    return _field(rule, default, default_factory)


def integer(
    default: Any = MISSING, *, ge: Optional[int] = None, le: Optional[int] = None
) -> Any:
    """An integral field, optionally bounded by ``ge`` below and ``le`` above."""
    return _field(Rule(integer=True, lo=ge, hi=le), default, MISSING)


def choice(default: Any, options: Tuple[Any, ...]) -> Any:
    """A field whose value must be one of ``options``."""
    return _field(Rule(choices=tuple(options)), default, MISSING)


def check(spec: Any) -> None:
    """Enforce every declared rule of dataclass ``spec``; raise on the first failure."""
    for spec_field in dataclasses.fields(spec):
        rule = spec_field.metadata.get(RULE)
        value = getattr(spec, spec_field.name)
        if rule is None or (value is None and spec_field.default is None):
            continue
        items = value.items() if rule.each else [(None, value)]
        for key, item in items:
            if not rule.accepts(item):
                label = spec_field.name
                if rule.each:
                    label = f"{label[:-1].replace('_', ' ')} for {key!r}"
                raise ValueError(f"{label} must be {rule}, got {item!r}")


def coerce(spec: Any, name: str, cls: type, many: bool = False) -> None:
    """Build field ``name`` of ``spec`` from its dict form (a sequence of them if ``many``).

    Values that already are ``cls`` instances pass through; ``None`` passes
    where it is the field's default.
    """

    def build(value: Any) -> Any:
        if isinstance(value, Mapping):
            return cls(**value)
        if not isinstance(value, cls):
            raise ValueError(
                f"{name} must be a {cls.__name__} (or its dict form), got {type(value)!r}"
            )
        return value

    value = getattr(spec, name)
    if value is None and spec.__dataclass_fields__[name].default is None:
        return
    object.__setattr__(spec, name, tuple(map(build, value)) if many else build(value))


@dataclass(frozen=True)
class FractionWindow:
    """A half-open window ``[start, end)`` given as fractions of the run duration.

    The base of :class:`~repro.multisite.spec.OutageWindow`,
    :class:`~repro.faults.spec.DegradedWindow` and
    :class:`~repro.faults.spec.PreemptionWindow`.
    """

    start: float = real()
    end: float = real()

    def __post_init__(self) -> None:
        check(self)
        kind = type(self).__name__
        if not self.start < self.end:
            raise ValueError(f"{kind} end ({self.end}) must be after its start ({self.start})")
        if not (0.0 <= self.start and self.end <= 1.0):
            raise ValueError(
                f"{kind} must lie within the run, 0 <= start < end <= 1, "
                f"got [{self.start}, {self.end})"
            )

    def contains(self, t_ms: float, duration_ms: float) -> bool:
        """Whether simulated time ``t_ms`` falls inside the window."""
        return self.start * duration_ms <= t_ms < self.end * duration_ms
