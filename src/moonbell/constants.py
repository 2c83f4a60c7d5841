"""Physical constants and shared defaults, SI units throughout;
:func:`record`, which builds every record type of the package; and
:func:`quantity`, which reads every number with a unit suffix that the CLI
takes."""

from __future__ import annotations

# operator's C half, whose itemgetter it re-exports, without operator.py's
# Python definitions.
from _operator import itemgetter

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import TypeVar

    _Record = TypeVar("_Record", bound=type)


def record(cls: _Record) -> _Record:
    """The immutable record type of ``cls``'s annotated fields, in order.

    The type is a tuple with namedtuple's API: a property per field,
    ``_fields``, ``_field_defaults``, ``_make``, ``_replace``, ``_asdict``,
    namedtuple's repr, pickling and ``__match_args__``. Class attributes
    named after fields are their defaults, and ``cls``'s methods carry over.
    A type that checks its fields defines ``_checked(self)``, which checks
    (or canonicalizes) the built tuple and returns it; construction,
    ``_make`` and ``_replace`` all end in that call, so no path skips it.
    Unlike ``collections.namedtuple``, nothing is compiled per type.
    """
    name, body = cls.__name__, vars(cls)
    fields = tuple(cls.__annotations__)
    defaults = {field: body[field] for field in fields if field in body}
    checks = "_checked" in body
    count = len(fields)

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(name, fields, defaults, args, kwargs)
        self = tuple.__new__(cls, args)
        return self._checked() if checks else self

    def _make(cls, iterable):
        self = tuple.__new__(cls, iterable)
        if len(self) != count:
            raise TypeError(f"Expected {count} arguments, got {len(self)}")
        return self._checked() if checks else self

    namespace = {key: value for key, value in body.items() if key not in ("__dict__", "__weakref__", *fields)}
    namespace.update(
        {field: property(itemgetter(i), doc=f"Alias for field number {i}") for i, field in enumerate(fields)},
        __slots__=(),
        __new__=__new__,
        _make=classmethod(_make),
        _fields=fields,
        _field_defaults=defaults,
        __match_args__=fields,
        _replace=_replace,
        _asdict=_asdict,
        __repr__=_repr,
        __getnewargs__=_getnewargs,
    )
    return type(name, (tuple,), namespace)


def _bind(name: str, fields: tuple[str, ...], defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of the call ``name(*args, **kwargs)``, in field order."""
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    rest = fields[len(args) :]
    for key in kwargs:
        if key not in rest:
            reason = "multiple values for argument" if key in fields else "an unexpected keyword argument"
            raise TypeError(f"{name}() got {reason} {key!r}")
    missing = [field for field in rest if field not in kwargs and field not in defaults]
    if missing:
        raise TypeError(f"{name}() missing required argument(s): {', '.join(map(repr, missing))}")
    return [*args, *(kwargs[field] if field in kwargs else defaults[field] for field in rest)]


def _replace(self, **changes):
    """A copy with the named fields changed, checked as a new record is."""
    result = self._make(map(changes.pop, self._fields, self))
    if changes:
        raise ValueError(f"Got unexpected field names: {list(changes)!r}")
    return result


def _asdict(self) -> dict:
    return dict(zip(self._fields, self))


def _repr(self) -> str:
    return f"{self.__class__.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(self._fields, self))})"


def _getnewargs(self) -> tuple:
    return tuple(self)


def quantity(text: str, units: dict[str, float], flag: str) -> float:
    """A number with an optional unit suffix, in the units' base unit.

    A malformed value raises a ValueError that names ``flag`` and ``text``.
    """
    value = text.strip().lower()
    number, scale = value, 1.0
    for unit, unit_scale in units.items():
        if value.endswith(unit):
            number, scale = value[: -len(unit)], unit_scale
            break
    try:
        return float(number) * scale
    except ValueError:
        suffix = f" with an optional {'/'.join(units)} suffix" if units else ""
        raise ValueError(f"{flag}: {text!r} is not a number{suffix}") from None


@record
class PhysicalConstants:
    """Reference values (CODATA 2018 / IAU) used by every module.

    ``c`` is exact by definition of the metre; everything else carries the
    usual measurement uncertainty, which is far below any tolerance used in
    this package.
    """

    c: float = 299_792_458.0                 # speed of light, m/s (exact)
    G: float = 6.674_30e-11                  # gravitational constant, m^3/(kg s^2)
    hbar: float = 1.054_571_817e-34          # reduced Planck constant, J s
    GM_earth: float = 3.986_004_418e14       # geocentric grav. parameter, m^3/s^2
    GM_moon: float = 4.904_869_5e12          # selenocentric grav. parameter, m^3/s^2
    R_earth: float = 6.371_0e6               # mean Earth radius, m
    R_moon: float = 1.737_4e6                # mean Moon radius, m
    m_proton: float = 1.672_621_923_69e-27   # proton mass, kg
    d_earth_moon_mean: float = 3.844e8       # mean Earth-Moon distance, m
    kpc: float = 3.085_677_581_491_3673e19   # kiloparsec, m
    planck_length: float = 1.616_255e-35     # Planck length, m

    def _checked(self) -> PhysicalConstants:
        for name, value in zip(self._fields, self):
            if not value > 0.0:
                raise ValueError(f"constant {name} must be strictly positive")
        if self.c != 299_792_458.0:
            raise ValueError("c is exact and must equal 299792458 m/s")
        return self


CONSTANTS = PhysicalConstants()

# Event timelines are kept in integer femtoseconds.
FS_PER_SECOND = 1e15

# Default measurement duration: 2.5 ps timing uncertainty plus 2.5 ps
# single-photon detector response.
DEFAULT_TAU_S = 5e-12
