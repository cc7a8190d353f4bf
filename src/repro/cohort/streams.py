"""Per-member random streams, drawn for a whole block of members at once.

Every cohort member samples from its own ``np.random.default_rng(seed)``
stream — a PCG64 bit generator seeded through a ``SeedSequence``.
Creating one such generator costs more than everything the member then
draws from it, so the columnar sampler reproduces the stream instead of
constructing it:

* :func:`seed_states` runs the ``SeedSequence`` entropy mixing for a
  whole block of 32-bit seeds as ``uint32`` array arithmetic and derives
  each member's initial PCG64 ``(state, increment)`` pair as 64-bit
  high/low ``uint64`` arrays;
* :func:`raw_words` steps every member's 128-bit LCG side by side as
  ``uint64`` array arithmetic (the high half of the 64-bit product
  built from 32-bit partial products, carries explicit) and emits
  PCG64's XSL-RR output word per step — no per-member Python work;
* :class:`StreamBlock` decodes those words exactly as ``Generator``
  does — ``random()`` from the top 53 bits, ``integers(n)`` by Lemire's
  bounded multiply on buffered 32-bit halves (with its rejection loop),
  ``uniform(low, high)`` as ``low + (high - low) * random()`` — with
  one cursor per member, so a block of members advances draw by draw
  in vectorised steps while each member still consumes its own stream
  in its own order.

``tests/cohort/test_streams.py`` checks every step against
``np.random.default_rng`` itself.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF

# SeedSequence mixing constants (numpy.random.bit_generator).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

#: The 128-bit LCG multiplier of PCG64, as 64-bit halves and as the
#: 32-bit halves of its low word (for :func:`_mulhi`).
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HIGH = np.uint64(_PCG_MULTIPLIER >> 64)
_MULT_LOW = np.uint64(_PCG_MULTIPLIER & 0xFFFFFFFFFFFFFFFF)
_MULT_LOW_HIGH = np.uint64((_PCG_MULTIPLIER >> 32) & _MASK32)
_MULT_LOW_LOW = np.uint64(_PCG_MULTIPLIER & _MASK32)

# Every operand of the uint64 arithmetic below is an ``np.uint64``:
# under numpy 1.x value-based promotion a bare Python int can turn a
# uint64 array into float64.
_LOW32 = np.uint64(_MASK32)
_U1 = np.uint64(1)
_U32 = np.uint64(32)
_U58 = np.uint64(58)
_U63 = np.uint64(63)
_U64 = np.uint64(64)

#: ``random()`` scale: 53 random bits to a double in [0, 1).
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


def _hashmix(values: np.ndarray, hash_const: list[int]) -> np.ndarray:
    values = values ^ np.uint32(hash_const[0])
    hash_const[0] = (hash_const[0] * _MULT_A) & _MASK32
    values = values * np.uint32(hash_const[0])
    return values ^ (values >> np.uint32(_XSHIFT))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


def seed_states(seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """Initial PCG64 state of ``default_rng(seed)`` for each 32-bit seed.

    Returns ``(state_high, state_low, increment_high, increment_low)``:
    the 128-bit state and increment as 64-bit ``uint64`` halves, one
    entry per seed.
    """
    seeds = np.asarray(seeds, dtype=np.uint32)
    hash_const = [_INIT_A]
    pool = [_hashmix(seeds, hash_const)]
    zeros = np.zeros_like(seeds)
    for _ in range(1, _POOL_SIZE):
        pool.append(_hashmix(zeros, hash_const))
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = _mix(pool[target],
                                    _hashmix(pool[source], hash_const))
    # generate_state(4, uint64): eight 32-bit words, pairs little-endian.
    hash_const_b = _INIT_B
    words = []
    for index in range(8):
        value = pool[index % _POOL_SIZE] ^ np.uint32(hash_const_b)
        hash_const_b = (hash_const_b * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const_b)
        words.append((value ^ (value >> np.uint32(_XSHIFT))).astype(np.uint64))
    initial_high, initial_low, inc_high, inc_low = (
        words[2 * k] | (words[2 * k + 1] << _U32) for k in range(4))
    increment = ((inc_high << _U1) | (inc_low >> _U63), (inc_low << _U1) | _U1)
    # pcg64_srandom_r: state 0 steps to the increment, absorbs the
    # initial state, and steps once more.
    state = _step(*_add128(*increment, initial_high, initial_low), *increment)
    return (*state, *increment)


def _add128(a_high: np.ndarray, a_low: np.ndarray, b_high: np.ndarray,
            b_low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a + b mod 2**128`` on 64-bit halves."""
    low = a_low + b_low
    return a_high + b_high + (low < a_low), low


def _mulhi(value: np.ndarray) -> np.ndarray:
    """High 64 bits of ``value * _MULT_LOW``, from 32-bit partial products."""
    low = value & _LOW32
    high = value >> _U32
    middle = high * _MULT_LOW_LOW + ((low * _MULT_LOW_LOW) >> _U32)
    cross = (middle & _LOW32) + low * _MULT_LOW_HIGH
    return (high * _MULT_LOW_HIGH + (middle >> _U32)
            + (cross >> _U32))


def _step(high: np.ndarray, low: np.ndarray, inc_high: np.ndarray,
          inc_low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step: ``state * multiplier + increment mod 2**128``."""
    return _add128(_mulhi(low) + high * _MULT_LOW + low * _MULT_HIGH,
                   low * _MULT_LOW, inc_high, inc_low)


def raw_words(seeds: np.ndarray, width: int) -> np.ndarray:
    """The first *width* raw 64-bit outputs of each seed's stream.

    All streams step together, one output column at a time: PCG64
    advances the state, then emits its XSL-RR output
    ``rotr64(high ^ low, high >> 58)``.
    """
    high, low, inc_high, inc_low = seed_states(seeds)
    # Column-major, so each step writes one contiguous column.
    words = np.empty((width, len(high)), dtype=np.uint64)
    for column in range(width):
        high, low = _step(high, low, inc_high, inc_low)
        folded = high ^ low
        rotation = high >> _U58
        words[column] = (folded >> rotation) | (
            folded << ((_U64 - rotation) & _U63))
    return words.T


class StreamOverrun(Exception):
    """A member drew past the words fetched for it (retry wider)."""


class StreamBlock:
    """Vectorised ``Generator`` draws over one block of member streams.

    Every draw method takes a boolean *mask* of the members that make
    the draw (the others' streams do not move) and returns one value per
    masked member, in member order.
    """

    def __init__(self, seeds: np.ndarray, width: int) -> None:
        self.words = raw_words(seeds, width)
        self.width = width
        size = len(seeds)
        self.cursor = np.zeros(size, dtype=np.int64)
        #: PCG64's buffered upper 32-bit half (``has_uint32``/``uinteger``).
        self.has_half = np.zeros(size, dtype=bool)
        self.half = np.zeros(size, dtype=np.uint64)

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        cursor = self.cursor[rows]
        if len(cursor) and int(cursor.max()) >= self.width:
            raise StreamOverrun
        self.cursor[rows] = cursor + 1
        return self.words[rows, cursor]

    def random(self, mask: np.ndarray) -> np.ndarray:
        """``Generator.random()`` for the masked members."""
        rows = np.flatnonzero(mask)
        return (self._next64(rows) >> np.uint64(11)) * _DOUBLE_SCALE

    def uniform(self, mask: np.ndarray, low: float,
                high: float) -> np.ndarray:
        """``Generator.uniform(low, high)`` for the masked members."""
        return low + (high - low) * self.random(mask)

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        buffered = self.has_half[rows]
        values = np.empty(len(rows), dtype=np.uint64)
        values[buffered] = self.half[rows[buffered]]
        fresh = rows[~buffered]
        words = self._next64(fresh)
        values[~buffered] = words & np.uint64(_MASK32)
        self.half[fresh] = words >> np.uint64(32)
        self.has_half[rows] = ~buffered
        return values

    def integers(self, mask: np.ndarray, count: int) -> np.ndarray:
        """``Generator.integers(count)`` for the masked members."""
        rows = np.flatnonzero(mask)
        if count == 1:
            return np.zeros(len(rows), dtype=np.int64)
        if not 1 < count <= _MASK32:
            raise ValueError(f"unsupported integer range {count}")
        bound = np.uint64(count)
        product = self._next32(rows) * bound
        threshold = (_MASK32 - (count - 1)) % count
        redraw = (product & np.uint64(_MASK32)) < np.uint64(threshold)
        while redraw.any():
            again = rows[redraw]
            product[redraw] = self._next32(again) * bound
            redraw[redraw] = ((product[redraw] & np.uint64(_MASK32))
                              < np.uint64(threshold))
        return (product >> np.uint64(32)).astype(np.int64)
