"""Unit tests for deterministic RNG derivation."""

from repro.util.rng import derive_rng, hash_prefix, make_rng, stable_hash


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
