"""Deterministic random-number helpers.

The simulator must be fully reproducible: the same seed must produce the
same topology, the same propagation delays, and therefore the same
catchments.  These helpers derive independent :class:`random.Random`
streams from a root seed and a string label, so that adding a new
consumer of randomness does not perturb existing streams.
"""

import hashlib
import random
import threading

import numpy as np

_MASK_64 = (1 << 64) - 1

#: Per-thread scratch generator of :func:`uniform_block`.  Every call
#: overwrites its whole state, so nothing carries over between calls;
#: it is kept because constructing one (numpy seeds it from OS entropy)
#: costs as much as drawing ~20 000 doubles.
_scratch = threading.local()


def hash_prefix(*parts, prefix=None):
    """Absorb ``parts`` into a hasher and return it.

    For callers that hash many keys sharing their leading parts:
    ``stable_hash(*tail, prefix=hash_prefix(*head))`` equals
    ``stable_hash(*head, *tail)`` and hashes ``head`` once.  A given
    ``prefix`` is copied, never advanced.
    """
    digest = hashlib.blake2b(digest_size=8) if prefix is None else prefix.copy()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest


def stable_hash(*parts, prefix=None) -> int:
    """Return a 64-bit hash of ``parts`` that is stable across runs.

    Python's built-in :func:`hash` is salted per process for strings, so
    it cannot be used for reproducible seeding.  This helper hashes the
    ``repr`` of each part with BLAKE2b instead; ``prefix`` is a
    :func:`hash_prefix` standing for the parts it already absorbed.

    >>> stable_hash("a", 1) == stable_hash("a", 1)
    True
    >>> stable_hash("a", 1) != stable_hash("a", 2)
    True
    """
    digest = hash_prefix(*parts, prefix=prefix).digest()
    return int.from_bytes(digest, "big") & _MASK_64


def make_rng(seed) -> random.Random:
    """Return a fresh :class:`random.Random` seeded with ``seed``.

    ``seed`` may be any hashable object; non-integers are reduced with
    :func:`stable_hash` first.
    """
    if not isinstance(seed, int):
        seed = stable_hash(seed)
    return random.Random(seed)


def derive_rng(root_seed, *labels) -> random.Random:
    """Derive an independent RNG stream from ``root_seed`` and labels.

    Two calls with the same arguments return identically-seeded streams;
    different labels give statistically independent streams.

    >>> a = derive_rng(7, "delays")
    >>> b = derive_rng(7, "delays")
    >>> a.random() == b.random()
    True
    """
    return random.Random(stable_hash(root_seed, *labels))


def uniform_block(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` uniforms of ``rng`` as one float64 array.

    Equal, bit for bit, to ``[rng.random() for _ in range(n)]``, and
    leaves ``rng`` where those calls would: both generators are MT19937
    and build a double from two 32-bit words the same way, so the state
    is moved into numpy, the block drawn in C, and the state moved back.
    """
    version, words, gauss_next = rng.getstate()
    bits = getattr(_scratch, "bits", None)
    if bits is None:
        bits = _scratch.bits = np.random.MT19937()
    bits.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(words[:-1], dtype=np.uint32), "pos": words[-1]},
    }
    block = np.random.Generator(bits).random(n)
    state = bits.state["state"]
    rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss_next))
    return block
