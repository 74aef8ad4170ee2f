"""Unit and property tests for repro.common.hashing."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import hashing


class TestMix64:
    def test_scalar_roundtrip_type(self):
        out = hashing.mix64(5)
        assert isinstance(out, np.uint64)

    def test_array_elementwise_matches_scalar(self):
        values = np.arange(100, dtype=np.uint64)
        mixed = hashing.mix64(values)
        for i in (0, 1, 50, 99):
            assert mixed[i] == hashing.mix64(int(values[i]))

    def test_avalanche(self):
        # flipping one input bit flips roughly half the output bits
        a = int(hashing.mix64(12345))
        b = int(hashing.mix64(12345 ^ 1))
        flipped = bin(a ^ b).count("1")
        assert 16 <= flipped <= 48

    def test_no_trivial_collisions(self):
        values = hashing.mix64(np.arange(100_000, dtype=np.uint64))
        assert len(np.unique(values)) == 100_000

    def test_pair_order_sensitive(self):
        assert hashing.mix64_pair(1, 2) != hashing.mix64_pair(2, 1)


class TestFoldGrainSignatures:
    def test_one_signature_per_block(self):
        ids = np.arange(64, dtype=np.uint64)
        sigs = hashing.fold_grain_signatures(ids, 8)
        assert sigs.shape == (8,)

    def test_partial_tail_block_padded(self):
        ids = np.arange(10, dtype=np.uint64)
        sigs = hashing.fold_grain_signatures(ids, 8)
        assert sigs.shape == (2,)

    def test_equal_blocks_equal_signatures(self):
        ids = np.concatenate([np.arange(8), np.arange(8)]).astype(np.uint64)
        sigs = hashing.fold_grain_signatures(ids, 8)
        assert sigs[0] == sigs[1]

    def test_permuted_block_differs(self):
        a = np.arange(8, dtype=np.uint64)
        b = a[::-1].copy()
        sigs = hashing.fold_grain_signatures(np.concatenate([a, b]), 8)
        assert sigs[0] != sigs[1]

    def test_padding_equals_explicit_hole_grains(self):
        # a short tail padded with zeros equals a full block that really ends
        # in zero-grains: both describe "rest of block is the hole grain"
        short = hashing.fold_grain_signatures(np.array([7, 8], dtype=np.uint64), 4)
        explicit = hashing.fold_grain_signatures(
            np.array([7, 8, 0, 0], dtype=np.uint64), 4
        )
        assert short[0] == explicit[0]

    def test_rejects_nonpositive_block(self):
        with pytest.raises(ValueError):
            hashing.fold_grain_signatures(np.arange(4, dtype=np.uint64), 0)

    @given(
        ids=st.lists(st.integers(min_value=0, max_value=2**63), min_size=1, max_size=200),
        grains=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_deterministic_and_shape(self, ids, grains):
        arr = np.asarray(ids, dtype=np.uint64)
        first = hashing.fold_grain_signatures(arr, grains)
        second = hashing.fold_grain_signatures(arr, grains)
        assert np.array_equal(first, second)
        assert first.shape[0] == -(-len(ids) // grains)


class TestDeriveSeed:
    def test_deterministic_across_runs(self):
        assert hashing.derive_seed("vmi", 3) == hashing.derive_seed("vmi", 3)

    def test_sensitive_to_each_part(self):
        assert hashing.derive_seed("vmi", 3) != hashing.derive_seed("vmi", 4)
        assert hashing.derive_seed("vmi", 3) != hashing.derive_seed("boot", 3)

    def test_order_sensitive(self):
        assert hashing.derive_seed("a", "b") != hashing.derive_seed("b", "a")

    def test_string_hash_is_stable_not_pythons(self):
        # a fixed regression value: guards against accidentally using hash()
        assert hashing.derive_seed("stable") == hashing.derive_seed("stable")
        assert 0 <= hashing.derive_seed("stable") < 2**64


def _numpy_derive_seed(*parts):
    """The numpy-scalar ``derive_seed`` the plain-int one replaced, kept as
    the reference it must equal. It takes Python ints, strs and bools."""
    state = np.uint64(0x5851F42D4C957F2D)
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
            value = np.uint64(int.from_bytes(digest, "little"))
        else:
            value = np.uint64(part & 0xFFFFFFFFFFFFFFFF)
        state = hashing.mix64_pair(state, value)
    return int(state)


_NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64,
               np.uint8, np.uint16, np.uint32, np.uint64)


def _numpy_int(draw_value):
    """A numpy integer scalar holding the drawn value (wrapped to its type)."""
    dtype, value = draw_value
    info = np.iinfo(dtype)
    span = int(info.max) - int(info.min) + 1
    return dtype((value - int(info.min)) % span + int(info.min))


_PARTS = st.lists(
    st.one_of(
        st.text(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.booleans(),
        st.tuples(st.sampled_from(_NUMPY_INTS), st.integers()).map(_numpy_int),
    ),
    max_size=6,
)


class TestDeriveSeedMatchesNumpyReference:
    #: values computed by the numpy implementation
    PINNED = {
        ("azure-dataset-v1",): 9862837819377755667,
        ("private", 12345, "boot"): 7717309748567941233,
        (): 6364136223846793005,
        (-1,): 10811467671112152849,
        (2**70,): 1435070930254194536,
        (True,): 8580320259175694704,
        ("\u00e9\u2603",): 4848191707609757639,
        (0, "image", 7): 13463393416836895389,
        (5,): 15702535965606909240,
    }

    @pytest.mark.parametrize("parts", sorted(PINNED, key=repr))
    def test_pinned_values(self, parts):
        assert hashing.derive_seed(*parts) == self.PINNED[parts]
        assert _numpy_derive_seed(*parts) == self.PINNED[parts]

    @given(parts=_PARTS)
    @settings(max_examples=300, deadline=None)
    def test_property_equals_reference(self, parts):
        # the reference needs Python ints: numpy signed scalars overflow in
        # its ``& 0xFFFF...`` mask
        as_python = [
            int(part) if isinstance(part, np.integer) else part
            for part in parts
        ]
        seed = hashing.derive_seed(*parts)
        assert seed == _numpy_derive_seed(*as_python)
        assert type(seed) is int and 0 <= seed < 2**64

    @pytest.mark.parametrize("dtype", _NUMPY_INTS)
    def test_numpy_integer_parts_equal_python_ints(self, dtype):
        assert hashing.derive_seed(dtype(5), "x") == hashing.derive_seed(5, "x")

    def test_numpy_signed_negative_part(self):
        assert hashing.derive_seed(np.int64(-3)) == hashing.derive_seed(-3)

    def test_rejects_non_integral_part(self):
        with pytest.raises(TypeError):
            hashing.derive_seed(1.5)
