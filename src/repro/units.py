"""SI unit helpers used throughout :mod:`repro`.

The library keeps every physical quantity in base SI units internally:

* power in watts (W)
* energy in joules (J)
* data rate in bits per second (bit/s)
* time in seconds (s)
* frequency in hertz (Hz)
* distance in metres (m)
* capacitance in farads (F)

These helpers exist so call sites read like the paper ("100 pJ/bit",
"1000 mAh", "10s of microwatts") while the maths stays in floats.  Each
constructor validates that the magnitude is finite and, where physically
required, non-negative, raising :class:`repro.errors.UnitError` otherwise.
"""

from __future__ import annotations

import math

from .errors import UnitError

# ---------------------------------------------------------------------------
# Scalar prefixes
# ---------------------------------------------------------------------------

PICO = 1e-12
NANO = 1e-9
MICRO = 1e-6
MILLI = 1e-3
KILO = 1e3
MEGA = 1e6
GIGA = 1e9

#: Seconds in common calendar units (used for battery-life reporting).
SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_WEEK = 7.0 * SECONDS_PER_DAY
SECONDS_PER_YEAR = 365.25 * SECONDS_PER_DAY

#: Typical coin-cell / wearable battery terminal voltage used when a
#: capacity is quoted in mAh without an explicit voltage.
DEFAULT_BATTERY_VOLTAGE = 3.0


def _check_finite(value: float, name: str) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise UnitError(f"{name} must be finite, got {value!r}")
    return value


def _check_non_negative(value: float, name: str) -> float:
    value = _check_finite(value, name)
    if value < 0.0:
        raise UnitError(f"{name} must be non-negative, got {value!r}")
    return value


def _check_positive(value: float, name: str) -> float:
    value = _check_finite(value, name)
    if value <= 0.0:
        raise UnitError(f"{name} must be positive, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Power
# ---------------------------------------------------------------------------

def watt(value: float) -> float:
    """Return a power expressed in watts."""
    return _check_non_negative(value, "power [W]")


def milliwatt(value: float) -> float:
    """Return a power expressed in milliwatts, converted to watts."""
    return _check_non_negative(value, "power [mW]") * MILLI


def microwatt(value: float) -> float:
    """Return a power expressed in microwatts, converted to watts."""
    return _check_non_negative(value, "power [uW]") * MICRO


def nanowatt(value: float) -> float:
    """Return a power expressed in nanowatts, converted to watts."""
    return _check_non_negative(value, "power [nW]") * NANO


def to_microwatt(power_w: float) -> float:
    """Convert a power in watts to microwatts (for reporting)."""
    return _check_non_negative(power_w, "power [W]") / MICRO


def to_milliwatt(power_w: float) -> float:
    """Convert a power in watts to milliwatts (for reporting)."""
    return _check_non_negative(power_w, "power [W]") / MILLI


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------

def joule(value: float) -> float:
    """Return an energy expressed in joules."""
    return _check_non_negative(value, "energy [J]")


def millijoule(value: float) -> float:
    """Return an energy expressed in millijoules, converted to joules."""
    return _check_non_negative(value, "energy [mJ]") * MILLI


def microjoule(value: float) -> float:
    """Return an energy expressed in microjoules, converted to joules."""
    return _check_non_negative(value, "energy [uJ]") * MICRO


def nanojoule(value: float) -> float:
    """Return an energy expressed in nanojoules, converted to joules."""
    return _check_non_negative(value, "energy [nJ]") * NANO


def picojoule(value: float) -> float:
    """Return an energy expressed in picojoules, converted to joules."""
    return _check_non_negative(value, "energy [pJ]") * PICO


def picojoule_per_bit(value: float) -> float:
    """Return a communication energy efficiency in pJ/bit as J/bit."""
    return _check_non_negative(value, "energy efficiency [pJ/bit]") * PICO


def nanojoule_per_bit(value: float) -> float:
    """Return a communication energy efficiency in nJ/bit as J/bit."""
    return _check_non_negative(value, "energy efficiency [nJ/bit]") * NANO


def to_picojoule_per_bit(joule_per_bit: float) -> float:
    """Convert an energy/bit in J/bit to pJ/bit (for reporting)."""
    return _check_non_negative(joule_per_bit, "energy per bit [J/bit]") / PICO


def mAh(capacity_mah: float, volts: float = DEFAULT_BATTERY_VOLTAGE) -> float:
    """Convert a battery capacity in milliamp-hours to joules.

    Parameters
    ----------
    capacity_mah:
        Capacity in mAh (e.g. ``1000`` for the paper's Fig. 3 assumption).
    volts:
        Nominal terminal voltage; defaults to 3.0 V, the usual quote for
        high-capacity coin cells and small Li-Po packs.
    """
    capacity_mah = _check_non_negative(capacity_mah, "capacity [mAh]")
    volts = _check_positive(volts, "battery voltage [V]")
    return capacity_mah * MILLI * SECONDS_PER_HOUR * volts


def watt_hour(value: float) -> float:
    """Convert an energy in watt-hours to joules."""
    return _check_non_negative(value, "energy [Wh]") * SECONDS_PER_HOUR


# ---------------------------------------------------------------------------
# Data rate and data size
# ---------------------------------------------------------------------------

def bit_per_second(value: float) -> float:
    """Return a data rate expressed in bits per second."""
    return _check_non_negative(value, "data rate [bit/s]")


def kilobit_per_second(value: float) -> float:
    """Return a data rate expressed in kb/s, converted to bit/s."""
    return _check_non_negative(value, "data rate [kb/s]") * KILO


def megabit_per_second(value: float) -> float:
    """Return a data rate expressed in Mb/s, converted to bit/s."""
    return _check_non_negative(value, "data rate [Mb/s]") * MEGA


def byte_per_second(value: float) -> float:
    """Return a data rate expressed in bytes per second, converted to bit/s."""
    return _check_non_negative(value, "data rate [B/s]") * 8.0


def bits(value: float) -> float:
    """Return a data volume in bits."""
    return _check_non_negative(value, "data volume [bit]")


def bytes_(value: float) -> float:
    """Return a data volume in bytes, converted to bits."""
    return _check_non_negative(value, "data volume [byte]") * 8.0


def kibibytes(value: float) -> float:
    """Return a data volume in KiB, converted to bits."""
    return _check_non_negative(value, "data volume [KiB]") * 8.0 * 1024.0


def to_megabit_per_second(rate_bps: float) -> float:
    """Convert a rate in bit/s to Mb/s (for reporting)."""
    return _check_non_negative(rate_bps, "data rate [bit/s]") / MEGA


# ---------------------------------------------------------------------------
# Frequency
# ---------------------------------------------------------------------------

def hertz(value: float) -> float:
    """Return a frequency expressed in hertz."""
    return _check_non_negative(value, "frequency [Hz]")


def kilohertz(value: float) -> float:
    """Return a frequency expressed in kHz, converted to Hz."""
    return _check_non_negative(value, "frequency [kHz]") * KILO


def megahertz(value: float) -> float:
    """Return a frequency expressed in MHz, converted to Hz."""
    return _check_non_negative(value, "frequency [MHz]") * MEGA


def gigahertz(value: float) -> float:
    """Return a frequency expressed in GHz, converted to Hz."""
    return _check_non_negative(value, "frequency [GHz]") * GIGA


# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------

def seconds(value: float) -> float:
    """Return a duration in seconds."""
    return _check_non_negative(value, "duration [s]")


def milliseconds(value: float) -> float:
    """Return a duration in milliseconds, converted to seconds."""
    return _check_non_negative(value, "duration [ms]") * MILLI


def minutes(value: float) -> float:
    """Return a duration in minutes, converted to seconds."""
    return _check_non_negative(value, "duration [min]") * SECONDS_PER_MINUTE


def hours(value: float) -> float:
    """Return a duration in hours, converted to seconds."""
    return _check_non_negative(value, "duration [h]") * SECONDS_PER_HOUR


def days(value: float) -> float:
    """Return a duration in days, converted to seconds."""
    return _check_non_negative(value, "duration [day]") * SECONDS_PER_DAY


def weeks(value: float) -> float:
    """Return a duration in weeks, converted to seconds."""
    return _check_non_negative(value, "duration [week]") * SECONDS_PER_WEEK


def years(value: float) -> float:
    """Return a duration in years, converted to seconds."""
    return _check_non_negative(value, "duration [year]") * SECONDS_PER_YEAR


def to_hours(duration_s: float) -> float:
    """Convert a duration in seconds to hours (for reporting)."""
    return _check_non_negative(duration_s, "duration [s]") / SECONDS_PER_HOUR


def to_days(duration_s: float) -> float:
    """Convert a duration in seconds to days (for reporting)."""
    return _check_non_negative(duration_s, "duration [s]") / SECONDS_PER_DAY


def to_years(duration_s: float) -> float:
    """Convert a duration in seconds to years (for reporting)."""
    return _check_non_negative(duration_s, "duration [s]") / SECONDS_PER_YEAR


# ---------------------------------------------------------------------------
# Distance
# ---------------------------------------------------------------------------

def metre(value: float) -> float:
    """Return a distance in metres."""
    return _check_non_negative(value, "distance [m]")


def centimetre(value: float) -> float:
    """Return a distance in centimetres, converted to metres."""
    return _check_non_negative(value, "distance [cm]") * 0.01


# ---------------------------------------------------------------------------
# Capacitance (used by the EQS-HBC circuit model)
# ---------------------------------------------------------------------------

def picofarad(value: float) -> float:
    """Return a capacitance in picofarads, converted to farads."""
    return _check_non_negative(value, "capacitance [pF]") * PICO


def femtofarad(value: float) -> float:
    """Return a capacitance in femtofarads, converted to farads."""
    return _check_non_negative(value, "capacitance [fF]") * 1e-15


# ---------------------------------------------------------------------------
# Decibel helpers
# ---------------------------------------------------------------------------

def db_to_linear(value_db: float) -> float:
    """Convert a power ratio in dB to a linear ratio."""
    value_db = _check_finite(value_db, "ratio [dB]")
    return 10.0 ** (value_db / 10.0)


def linear_to_db(ratio: float) -> float:
    """Convert a linear power ratio to dB."""
    ratio = _check_positive(ratio, "power ratio")
    return 10.0 * math.log10(ratio)


def dbm_to_watt(value_dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    value_dbm = _check_finite(value_dbm, "power [dBm]")
    return MILLI * 10.0 ** (value_dbm / 10.0)


def watt_to_dbm(power_w: float) -> float:
    """Convert a power level in watts to dBm."""
    power_w = _check_positive(power_w, "power [W]")
    return 10.0 * math.log10(power_w / MILLI)
