"""Physical constants and shared defaults, SI units throughout."""

from __future__ import annotations

from typing import NamedTuple, TypeVar

_Record = TypeVar("_Record", bound=type)


def checked(cls: _Record) -> _Record:
    """Make every construction of the NamedTuple ``cls`` return ``record._checked()``.

    A type that checks its fields is a NamedTuple whose ``_checked(self)``
    method checks (or canonicalizes) the built tuple and returns it. The
    constructor and ``_make`` both end in that call, and ``_replace`` builds
    through ``_make``, so no construction path skips the checks.
    """
    new, make = cls.__new__, cls._make.__func__
    cls.__new__ = staticmethod(lambda cls, *args, **kwargs: new(cls, *args, **kwargs)._checked())
    cls._make = classmethod(lambda cls, iterable: make(cls, iterable)._checked())
    return cls


@checked
class PhysicalConstants(NamedTuple):
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
