"""Philox-4x64-10 written out in plain integers — the oracle of
``repro.util.rng.uniforms`` — and the transcendentals of
``exponentials`` / ``standard_normals`` one libm call at a time.

Shares nothing with the code under test (no numpy, no bit generator):
the round function and constants are the ones of Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3" (SC'11).  Slow on
purpose; the tests' draw loops read it one word at a time.
"""

import math

_MASK = (1 << 64) - 1
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def philox_block(counter, key):
    """One Philox-4x64-10 block: four 64-bit words."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        product0 = _MULTIPLIERS[0] * c0
        product1 = _MULTIPLIERS[1] * c2
        c0, c1, c2, c3 = (
            (product1 >> 64) ^ c1 ^ k0,
            product1 & _MASK,
            (product0 >> 64) ^ c3 ^ k1,
            product0 & _MASK,
        )
        k0 = (k0 + _WEYL[0]) & _MASK
        k1 = (k1 + _WEYL[1]) & _MASK
    return c0, c1, c2, c3


def reference_uniform(key: int, word: int, row: int = 0) -> float:
    """Word ``word`` of row ``row`` of noise stream ``key`` as a
    uniform in ``[0, 1)``, straight from the definition: lane
    ``word % 4`` of the block at counter ``(word // 4 + 1, row, 0, 0)``
    under key ``(key, 0)``, top 53 bits times ``2**-53``."""
    block = philox_block((word // 4 + 1, row, 0, 0), (key, 0))
    return (block[word % 4] >> 11) * 2.0**-53


def reference_exponential(u: float) -> float:
    """A unit-mean exponential from one uniform: ``-ln(1 - u)``."""
    return -math.log(1.0 - u)


def reference_normal(u0: float, u1: float) -> float:
    """A standard normal from a uniform pair (Box–Muller)."""
    return math.sqrt(2.0 * reference_exponential(u0)) * math.cos(2.0 * math.pi * u1)
