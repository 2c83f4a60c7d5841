"""numpy's random primitives that moonbell samples with, ported to Python.

The ports follow numpy's own algorithms: its ``SeedSequence`` hash, the
Philox4x64-10 counter-based generator (Salmon et al., SC'11, "Parallel random
numbers: as easy as 1, 2, 3") behind ``numpy.random.Philox``, and the two
``Generator`` methods :func:`moonbell.simulate.simulate` calls: ``choice``
with weights and ``multinomial``, whose binomials use inversion or BTPE
(Kachitvichyanukul and Schmeiser, CACM 31, 216, 1988).  Each follows numpy's
C code step for step, including where its int64 arithmetic wraps and where
C's math functions and casts give inf, NaN or INT64_MIN instead of raising,
so every draw equals numpy's bit for bit (``tests/test_philox.py`` checks
them against numpy).  Philox's 64-bit words are packed into and read from
explicit little-endian bytes, so the stream is the same on any host.  Keeping
numpy out of moonbell's runtime saves every sampling command the cost of
importing it.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from functools import partial

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_INT64_MIN = -(1 << 63)
# next_double: the top 53 bits of a word, scaled into [0, 1).
_TO_DOUBLE = 1.0 / 9007199254740992.0

# SeedSequence's hash constants (pool of four 32-bit words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# Philox4x64's round multipliers and key increments (Weyl constants).
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
# The fewest blocks a refill generates.  One run's 16-cell multinomial reads
# a median of 34 doubles and at most 44 (50 seeds of each outcome model at 1e5
# and 1e7 pairs, default settings), so one refill of 64 words covers a run.
_REFILL_BLOCKS = 16


def _hash_constants(init: int, mult: int, hashes: int) -> list[int]:
    """The constants of ``hashes`` successive hashes: hash j xors entry j into
    its value and multiplies by entry j + 1, whatever the values hashed."""
    constants = [init]
    for _ in range(hashes):
        constants.append(constants[-1] * mult & _M32)
    return constants


# Enough for entropy of up to four words and two output words, which covers
# every sweep sub-seed and every Philox key.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 4)
# The pool's cross mix, (source, destination) in order: each pool word is
# hashed into each other one.
_CROSS_MIX = tuple((src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE) if src != dst)


def seed_state(entropy: list[int], n_words: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)`` as ints,
    for a list of non-negative ints."""
    words = []
    for value in entropy:
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _M32)
        value >>= 32
        while value:
            words.append(value & _M32)
            value >>= 32

    # After the pool's own words, each entropy word past the pool is hashed
    # into every pool word; mixing writes only to the pool.
    mixes = _CROSS_MIX + tuple(
        (src, dst) for src in range(_POOL_SIZE, len(words)) for dst in range(_POOL_SIZE)
    )
    hashes = _POOL_SIZE + len(mixes)
    a = _HASH_A if hashes < len(_HASH_A) else _hash_constants(_INIT_A, _MULT_A, hashes)
    pool = []
    for j, word in enumerate(words[:_POOL_SIZE] + [0] * (_POOL_SIZE - len(words))):
        value = (word ^ a[j]) * a[j + 1] & _M32
        pool.append(value ^ value >> 16)
    pool += words[_POOL_SIZE:]
    for j, (src, dst) in enumerate(mixes, _POOL_SIZE):
        value = (pool[src] ^ a[j]) * a[j + 1] & _M32
        mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ value >> 16)) & _M32
        pool[dst] = mixed ^ mixed >> 16

    b = _HASH_B if 2 * n_words < len(_HASH_B) else _hash_constants(_INIT_B, _MULT_B, 2 * n_words)
    halves = []
    for i in range(2 * n_words):
        value = (pool[i % _POOL_SIZE] ^ b[i]) * b[i + 1] & _M32
        halves.append(value ^ value >> 16)
    return [halves[2 * i] | halves[2 * i + 1] << 32 for i in range(n_words)]


class Philox:
    """The word stream of ``numpy.random.Philox(seed)``: Philox4x64-10 keyed
    by ``SeedSequence(seed)``, counter from zero, four words per block."""

    def __init__(self, seed: int) -> None:
        k0, k1 = seed_state([seed], 2)
        # The key schedule does not depend on the counter: one per round.
        self._keys = tuple(
            ((k0 + r * _PHILOX_W0) & _M64, (k1 + r * _PHILOX_W1) & _M64) for r in range(_PHILOX_ROUNDS)
        )
        self._counter = 0
        self._buffer: list[int] = []
        self._pos = 0

    def _blocks(self, count: int) -> list[int]:
        """The next ``count`` blocks' words; the counter is bumped before each.

        Every block runs in its own 128-bit lane of one int per word, so a
        round is a few whole-int operations: a lane's 64x64-bit product fits
        in its lane.  A lane is little-endian bytes, a 64-bit word then eight
        zero bytes, on any host; its ``Struct`` stays out of ``struct``'s
        cache, which would keep a large batch's format alive.  The counter's
        upper three words stay zero, since no run draws 2**64 blocks.
        """
        lanes = struct.Struct("<" + "Q8x" * count)
        counters = lanes.pack(*range(self._counter + 1, self._counter + count + 1))
        self._counter += count
        x0, x1, x2, x3 = int.from_bytes(counters, "little"), 0, 0, 0
        ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
        low = ones * _M64
        for k0, k1 in self._keys:
            prod0 = _PHILOX_M0 * x0
            prod1 = _PHILOX_M1 * x2
            x0, x1, x2, x3 = (
                (prod1 >> 64) & low ^ x1 ^ k0 * ones,
                prod1 & low,
                (prod0 >> 64) & low ^ x3 ^ k1 * ones,
                prod0 & low,
            )
        out = [0] * (4 * count)
        for i, x in enumerate((x0, x1, x2, x3)):
            out[i::4] = lanes.unpack(x.to_bytes(16 * count, "little"))
        return out

    def _refill(self, size: int) -> None:
        """Make at least ``size`` words unread: keep the unread words and
        append ``max(_REFILL_BLOCKS, ceil(missing / 4))`` blocks.  The stream
        is counter-based, so the refill size never changes the next word."""
        missing = size - (len(self._buffer) - self._pos)
        words = self._blocks(max(_REFILL_BLOCKS, -(-missing // 4)))
        words[:0] = self._buffer[self._pos :]
        self._buffer, self._pos = words, 0

    def random_raw(self, size: int) -> list[int]:
        """The next ``size`` 64-bit words, as ``Philox.random_raw(size)``."""
        if self._pos + size > len(self._buffer):
            self._refill(size)
        self._pos += size
        return self._buffer[self._pos - size : self._pos]

    def random(self, size: int) -> list[float]:
        """The next ``size`` doubles in [0, 1), as ``Generator.random(size)``."""
        return [(w >> 11) * _TO_DOUBLE for w in self.random_raw(size)]

    def next_double(self) -> float:
        """The next double in [0, 1), as ``Generator.random()``."""
        if self._pos == len(self._buffer):
            self._refill(1)
        self._pos += 1
        return (self._buffer[self._pos - 1] >> 11) * _TO_DOUBLE


def _kahan_sum(values: list[float]) -> float:
    if not values:
        return 0.0
    total, c = values[0], 0.0
    for x in values[1:]:
        y = x - c
        t = total + y
        c = (t - total) - y
        total = t
    return total


def choice(bitgen: Philox, p: list[float], size: int) -> list[int]:
    """``Generator.choice(len(p), size, p=p)``: indices drawn with weights ``p``."""
    p_sum = _kahan_sum(p)
    if math.isnan(p_sum):
        raise ValueError("Probabilities contain NaN")
    if any(x < 0.0 for x in p):
        raise ValueError("Probabilities are not non-negative")
    if abs(p_sum - 1.0) > math.sqrt(2.0**-52):
        raise ValueError("Probabilities do not sum to 1. See Notes section of docstring for more information.")
    cdf, total = [], 0.0
    for x in p:
        total += x
        cdf.append(total)
    cdf = [c / total for c in cdf]
    return list(map(partial(bisect_right, cdf), bitgen.random(size)))


def multinomial(bitgen: Philox, n: int, pvals: list[float]) -> list[int]:
    """``Generator.multinomial(n, pvals)`` for an int ``n`` in int64 range: a
    binomial per cell over what the earlier cells left."""
    if not pvals:
        raise ValueError(
            "pvals must have at least 1 dimension and the last dimension of pvals must be greater than 0."
        )
    if not all(0.0 <= x <= 1.0 for x in pvals):
        raise ValueError("pvals < 0, pvals > 1 or pvals contains NaNs")
    if _kahan_sum(pvals[:-1]) > 1.0 + 1e-12:
        raise ValueError("sum(pvals[:-1]) > 1.0")
    if n < 0:
        raise ValueError("n < 0")
    counts = [0] * len(pvals)
    remaining_p, dn = 1.0, n
    for j, x in enumerate(pvals[:-1]):
        # remaining_p > 0 here: a cell with x >= remaining_p draws p >= 1 and takes all of dn.
        counts[j] = _binomial(bitgen, x / remaining_p, dn)
        dn -= counts[j]
        if dn <= 0:
            break
        remaining_p -= x
    if dn > 0:
        counts[-1] = dn
    return counts


def _to_int64(x: float) -> int:
    """C's ``(int64_t)x`` on x86-64: truncation, and INT64_MIN for NaN or out of range."""
    return int(x) if -9.223372036854775808e18 <= x < 9.223372036854775808e18 else _INT64_MIN


def _wrap_int64(x: int) -> int:
    return ((x - _INT64_MIN) & _M64) + _INT64_MIN


def _binomial(bitgen: Philox, p: float, n: int) -> int:
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return _binomial_inversion(bitgen, n, p) if p * n <= 30.0 else _binomial_btpe(bitgen, n, p)
    q = 1.0 - p
    return n - (_binomial_inversion(bitgen, n, q) if q * n <= 30.0 else _binomial_btpe(bitgen, n, q))


def _binomial_inversion(bitgen: Philox, n: int, p: float) -> int:
    # p < 0 when the caller's p exceeded 1; then qn >= 1 and no draw moves X from 0.
    q = 1.0 - p
    try:
        qn = math.exp(n * math.log1p(-p))
    except OverflowError:  # C's exp gives inf
        qn = math.inf
    np_ = n * p
    var = np_ * q + 1
    spread = np_ + 10.0 * math.sqrt(var) if var >= 0.0 else math.nan  # C's sqrt: NaN below zero
    bound = _to_int64(float(n) if float(n) < spread else spread)
    x = 0
    px = qn
    u = bitgen.next_double()
    while u > px:
        x += 1
        if x > bound:
            x = 0
            px = qn
            u = bitgen.next_double()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _stirling(x: float, x2: float) -> float:
    return (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0


def _binomial_btpe(bitgen: Philox, n: int, p: float) -> int:
    """BTPE for 0 < p <= 0.5 and n*p > 30."""
    r = p
    q = 1.0 - r
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * r * q

    while True:
        u = bitgen.next_double() * p4
        v = bitgen.next_double()
        if u <= p1:
            return math.floor(xm - p1 * v + u)
        if u <= p2:
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif v == 0.0:  # C rejects v == 0 after an undefined cast of log(0)
            continue
        elif u <= p3:
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr

        k = abs(y - m)
        if k > 20 and k < nrq / 2.0 - 1:
            # Squeeze on log(v); v <= 0 can come from the triangle's edge, where C's log gives -inf or NaN.
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = _wrap_int64(-k * k) / (2 * nrq)
            a_log = math.log(v) if v > 0.0 else -math.inf if v == 0.0 else math.nan
            if a_log < t - rho:
                return y
            if a_log > t + rho:
                continue
            x1 = float(y + 1)
            f1 = float(m + 1)
            z = float(n) + 1 - m
            w = float(n) - y + 1
            if a_log > (
                xm * math.log(f1 / x1)
                + (n - m + 0.5) * math.log(z / w)
                + (y - m) * math.log(w * r / (x1 * q))
                + _stirling(f1, f1 * f1)
                + _stirling(x1, x1 * x1)
                + _stirling(z, z * z)
                + _stirling(w, w * w)
            ):
                continue
            return y

        s = r / q
        a = s * _wrap_int64(n + 1)
        f = 1.0
        if m < y:
            for i in range(m + 1, y + 1):
                f *= a / i - s
        elif m > y:
            for i in range(y + 1, m + 1):
                f /= a / i - s
        if v > f:
            continue
        return y
