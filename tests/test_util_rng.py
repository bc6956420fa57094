"""Unit tests for deterministic RNG derivation."""

import math

import pytest

from repro.util.rng import derive_rng, hash_prefix, make_rng, stable_hash, uniform_block


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
    # 312 doubles use up one 624-word generator state exactly.
    SIZES = (0, 1, 311, 312, 313, 1300)

    @pytest.mark.parametrize("advanced", [0, 1, 5, 623, 700])
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_successive_random_calls(self, n, advanced):
        block_rng, plain_rng = derive_rng(7, "block"), derive_rng(7, "block")
        for _ in range(advanced):
            assert block_rng.random() == plain_rng.random()
        block = uniform_block(block_rng, n)
        assert block.dtype == float and block.shape == (n,)
        assert block.tolist() == [plain_rng.random() for _ in range(n)]
        # ... and the stream continues where those calls left it.
        assert block_rng.getstate() == plain_rng.getstate()
        assert block_rng.random() == plain_rng.random()

    def test_consecutive_blocks_continue_the_stream(self):
        block_rng, plain_rng = make_rng(3), make_rng(3)
        blocks = [uniform_block(block_rng, n).tolist() for n in self.SIZES]
        assert blocks == [[plain_rng.random() for _ in range(n)] for n in self.SIZES]

    def test_pending_gauss_value_is_kept(self):
        block_rng, plain_rng = make_rng(9), make_rng(9)
        assert block_rng.gauss(0.0, 1.0) == plain_rng.gauss(0.0, 1.0)
        uniform_block(block_rng, 4)
        for _ in range(4):
            plain_rng.random()
        assert block_rng.gauss(0.0, 1.0) == plain_rng.gauss(0.0, 1.0)

    @pytest.mark.parametrize("lambd", [1.0 / 20.0, 0.2, 3.0])
    def test_expovariate_over_the_block(self, lambd):
        """``-log(1 - u) / lambd`` over the block is ``expovariate``
        element for element — what the engine's per-link delay jitter
        relies on."""
        block = uniform_block(derive_rng(11, "delay-jitter", 4), 1300)
        plain_rng = derive_rng(11, "delay-jitter", 4)
        assert [-math.log(1.0 - u) / lambd for u in block.tolist()] == [
            plain_rng.expovariate(lambd) for _ in range(1300)
        ]
