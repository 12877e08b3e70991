"""The codec's bit-transpose column packer against the references in oracles.py.

The reference packer builds every group's eight bit columns and keeps the
ones the index names; the codec transposes each 8-byte word of a group as
an 8x8 bit matrix and gathers the columns with the index bits as mask. Their
payloads must be byte-identical at every group size, and unpacking a packed
layer must give back its sign-magnitude groups. The transpose kernel is
checked against a bit-by-bit reference and as its own inverse, and
SLOT_BIT against the keep mask that packing and unpacking use.

_transpose8 works through blocks of codec._BLOCK_WORDS words (whole rows of
a 2-D array), so it is also checked on 1-D and (n, cb) arrays of two full
blocks and a ragged third, and packing and unpacking on layers whose group
count spans as many blocks, at every group size with more than one column
byte and at G = 8.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from bitcol import codec

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# all-zero and all-column groups each make up about a third of the draws
INDEX = st.one_of(st.just(0x00), st.just(0xFF), st.integers(0, 255))
WORD = st.one_of(st.just(0), st.just(2**64 - 1), st.integers(0, 2**64 - 1))
WORDS = st.lists(WORD, min_size=1, max_size=64).map(lambda w: np.array(w, dtype="<u8"))


@PROPERTY
@given(words=WORDS)
def test_transpose8_is_an_involution(words):
    work = words.copy()
    assert codec._transpose8(work) is work  # in place
    np.testing.assert_array_equal(codec._transpose8(work), words)


@PROPERTY
@given(words=WORDS)
def test_transpose8_matches_reference(words):
    np.testing.assert_array_equal(codec._transpose8(words.copy()), oracles.transpose8(words))


@PROPERTY
@given(data=st.data(), g=st.sampled_from(codec.GROUP_SIZES))
def test_pack_matches_reference(data, g):
    indexes = np.array(data.draw(st.lists(INDEX, min_size=1, max_size=40)), dtype=np.uint8)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sm = rng.integers(0, 256, size=(len(indexes), g), dtype=np.uint8) & indexes[:, None]
    sm[:, 0] |= indexes  # each group's index is the OR of its bytes
    got = codec.pack_columns(sm, indexes)
    want = oracles.pack_columns(sm, indexes)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("g", codec.GROUP_SIZES)
def test_pack_matches_reference_at_every_group_size(g):
    rng = np.random.default_rng(g)
    indexes = np.concatenate([[0x00, 0xFF, 0x80, 0x01],
                              rng.integers(0, 256, size=60)]).astype(np.uint8)
    sm = rng.integers(0, 256, size=(len(indexes), g), dtype=np.uint8) & indexes[:, None]
    sm[:, 0] |= indexes
    assert codec.pack_columns(sm, indexes).tobytes() == \
        oracles.pack_columns(sm, indexes).tobytes()


@PROPERTY
@given(g=st.sampled_from(codec.GROUP_SIZES), k=st.integers(1, 6), c=st.integers(1, 70),
       f=st.sampled_from([1, 3]), scale=st.sampled_from([0, 1, 4, 40, 200]),
       seed=st.integers(0, 2**32 - 1))
def test_unpack_inverts_pack(g, k, c, f, scale, seed):
    rng = np.random.default_rng(seed)
    v = np.clip(np.rint(rng.normal(0, scale, size=(k, c, f, f))), -128, 127).astype(np.int8)
    v[rng.random(v.shape) < 0.3] = 0
    got = codec.unpack_groups(codec.compress_layer(v, g, "bcs"))
    np.testing.assert_array_equal(got, codec.sm_encode(codec.partition_groups(v, g)))


def test_slot_bit_table():
    assert codec.SLOT_BIT[0x00].tolist() == [-1] * 8
    assert codec.SLOT_BIT[0xFF].tolist() == [7, 6, 5, 4, 3, 2, 1, 0]
    assert codec.SLOT_BIT[0b10010100].tolist() == [7, 4, 2, -1, -1, -1, -1, -1]
    assert ((codec.SLOT_BIT >= 0).sum(axis=1) == oracles.POPCOUNT).all()


def test_slot_bit_agrees_with_the_keep_mask():
    # payload column t of index i is the t-th set bit of i, MSB first: the
    # t-th slot the keep mask stores, whose index bit is 7 - slot
    keep = codec._keep(np.arange(256, dtype=np.uint8))
    assert keep.shape == (256, 8) and keep.dtype == bool
    for i in range(256):
        assert keep[i].tolist() == [bool(i >> (7 - s) & 1) for s in range(8)]
        bits = [7 - s for s in np.flatnonzero(keep[i])]
        assert codec.SLOT_BIT[i].tolist() == bits + [-1] * (8 - len(bits))


@pytest.mark.parametrize("cb", [None, 1, 2, 4, 8])
def test_transpose8_spans_blocks_and_a_ragged_last_block(cb):
    rows = 2 * codec._BLOCK_WORDS // (cb or 1) + 37  # two full blocks, then 37 rows
    shape = (rows,) if cb is None else (rows, cb)
    words = np.random.default_rng(rows).integers(0, 2**64, size=shape, dtype=np.uint64)
    words[-1] = 2**64 - 1  # the last word of the ragged block
    work = words.astype("<u8")
    assert codec._transpose8(work) is work
    np.testing.assert_array_equal(work, oracles.transpose8(words))
    np.testing.assert_array_equal(codec._transpose8(work), words)


@pytest.mark.parametrize("g", [8, 16, 32, 64])
def test_pack_and_unpack_span_blocks(g):
    cb = g // 8
    c = 3 * g - 5  # three channel blocks per position, the last one padded
    k = (2 * codec._BLOCK_WORDS // cb + 99) // 3 + 1  # groups past two full blocks
    rng = np.random.default_rng(g)
    values = np.clip(np.rint(rng.normal(0, 6, size=(k, c, 1, 1))), -128, 127).astype(np.int8)
    values[rng.random(values.shape) < 0.2] = 0
    values[0, 0, 0, 0] = values[-1, -1, 0, 0] = -128
    sm = oracles.sm_bytes(codec.partition_groups(values, g))
    assert len(sm) * cb > 2 * codec._BLOCK_WORDS

    cl = codec.compress_layer(values, g, "bcs")
    np.testing.assert_array_equal(cl.indexes, np.bitwise_or.reduce(sm, axis=1))
    assert cl.columns.tobytes() == oracles.pack_columns(sm, cl.indexes).tobytes()
    np.testing.assert_array_equal(codec.unpack_groups(cl), sm)
    np.testing.assert_array_equal(codec.decompress_layer(cl, values.shape),
                                  np.maximum(values, -127))
