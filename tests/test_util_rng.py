"""Unit tests for deterministic RNG derivation."""

import math

import pytest

from repro.bgp.delta import LinkJitter
from repro.util.rng import derive_rng, hash_prefix, make_rng, stable_hash, uniforms

from tests.reference_noise import reference_uniform


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_sensitive_to_values(self):
        assert stable_hash("a", 1) != stable_hash("a", 2)

    def test_sensitive_to_order(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_distinguishes_concatenation(self):
        # ("ab", "c") must differ from ("a", "bc"): parts are delimited.
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_64_bit_range(self):
        value = stable_hash("anything", 123)
        assert 0 <= value < 2**64

    def test_prefix_stands_for_leading_parts(self):
        prefix = hash_prefix(7, "icmp", 3)
        for tail in ((), (0,), (1, "x")):
            assert stable_hash(*tail, prefix=prefix) == stable_hash(7, "icmp", 3, *tail)

    def test_prefix_is_not_advanced(self):
        prefix = hash_prefix("a")
        first = stable_hash(1, prefix=prefix)
        assert stable_hash(1, prefix=prefix) == first == stable_hash("a", 1)


class TestMakeRng:
    def test_int_seed_reproducible(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_non_int_seed(self):
        a = make_rng(("composite", 3))
        b = make_rng(("composite", 3))
        assert a.random() == b.random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()


class TestDeriveRng:
    def test_same_labels_same_stream(self):
        assert derive_rng(7, "x").random() == derive_rng(7, "x").random()

    def test_different_labels_independent(self):
        assert derive_rng(7, "x").random() != derive_rng(7, "y").random()

    def test_label_arity_matters(self):
        assert derive_rng(7, "x", 1).random() != derive_rng(7, "x").random()


class TestUniformBlock:
    """A block of the noise stream on a fixed grid of sizes and
    offsets (``tests/test_noise.py`` has the property-based half):
    a block is the words at its addresses, whatever was read before."""

    # 4 words make one Philox block; 312 / 313 straddle a boundary.
    SIZES = (0, 1, 311, 312, 313, 1300)
    KEY = stable_hash(7, "block")

    @pytest.mark.parametrize("advanced", [0, 1, 5, 623, 700])
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_successive_random_calls(self, n, advanced):
        """``advanced`` is both the block's first word and the number
        of unrelated reads made on this thread before it."""
        for word in range(advanced):
            uniforms(stable_hash("unrelated", word), word, 3)
        block = uniforms(self.KEY, advanced, n)
        assert block.dtype == float and block.shape == (n,)
        assert block.tolist() == [
            uniforms(self.KEY, advanced + i, 1).item() for i in range(n)
        ]
        assert block.tolist()[:40] == [
            reference_uniform(self.KEY, advanced + i) for i in range(min(n, 40))
        ]

    def test_consecutive_blocks_continue_the_stream(self):
        starts = [sum(self.SIZES[:i]) for i in range(len(self.SIZES))]
        blocks = [uniforms(self.KEY, s, n).tolist() for s, n in zip(starts, self.SIZES)]
        assert sum(blocks, []) == uniforms(self.KEY, 0, sum(self.SIZES)).tolist()

    @pytest.mark.parametrize("lambd", [1.0 / 20.0, 0.2, 3.0])
    def test_expovariate_over_the_block(self, lambd):
        """``-log(1 - u) / lambd`` over the block — ``expovariate``'s
        own expression — is what a :class:`LinkJitter` lookup answers,
        element for element: what the engine's per-link delay jitter
        relies on."""
        block = uniforms(stable_hash(11, "delay-jitter", 4), 0, 1300)
        jitter = LinkJitter({(0, slot): slot for slot in range(1300)}, block, lambd)
        assert [-math.log(1.0 - u) / lambd for u in block.tolist()] == [
            jitter[(0, slot)] for slot in range(1300)
        ]
