"""The codec's whole-array kernels against their plain forms.

zre_size counts the non-zeros plus the runs of all-zero 16-wide windows,
which only zero runs of 16 or more hold; oracles.zre_size walks the stream
one value at a time. The draws are zero-heavy and hit the run lengths next
to each multiple of 16 where ZRE splits (15 to 17, 31 to 33, 47 to 49),
inside the stream and at its end, plus the empty and the all-zero stream.

_or_index ORs each group 8 bytes at a time as <u8 words; it must equal
np.bitwise_or.reduce over each row at every group size, on the zero-padded
groups of a tensor whose channel count is no multiple of G, for both the
sign-magnitude and the raw two's-complement bytes; sparsity_stats, which
reads both, must equal oracles.sparsity_stats there.

_popcount sums the set bits of a byte array 8 bytes at a time as <u8 words,
then the tail bytes; it must equal the sum of oracles.POPCOUNT, the 256-entry
table, at every length from 0 to 70 (each tail length from 0 to 7), on 2-D
arrays, on strided views and on int8 input.

sm_decode computes each sign-magnitude byte's value arithmetically on an
int8 copy; it must equal oracles.sm_decode, the 256-entry value table, on
uint8 arrays of any shape, strided views (unpack_groups returns one for
G < 8), a 0-d array and a Python list, return int8 and leave its input as
it was.

No kernel writes into its input. partition_groups returns a view of the
tensor for an int8 (K, C, 1, 1) layer with C a multiple of G, so an encode,
pack, group-size choice, statistics pass, flip or round-trip check that
wrote into its groups would change the manifest's tensor.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from bitcol import bitflip, codec, engine

PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

RUNS = st.one_of(st.sampled_from([15, 16, 17, 31, 32, 33, 47, 48, 49]), st.integers(0, 40))


@st.composite
def zero_heavy(draw):
    """Up to 300 int8 values: zero runs, each closed by a non-zero, then a trailing run."""
    values = []
    for run, v in draw(st.lists(st.tuples(RUNS, st.integers(-128, 127).filter(bool)),
                                max_size=12)):
        values += [0] * run + [v]
    values += [0] * draw(RUNS)
    return np.array(values[:300], dtype=np.int8)


@PROPERTY
@given(zero_heavy())
@example(np.zeros(0, dtype=np.int8))
@example(np.zeros(300, dtype=np.int8))
@example(np.r_[np.zeros(32), 5, np.zeros(17)].astype(np.int8))
@example(np.r_[np.zeros(16), 5].astype(np.int8))
@example(np.r_[np.zeros(20), -3, np.zeros(33), 7].astype(np.int8))
@example(np.r_[9, np.zeros(32)].astype(np.int8))
@example(np.r_[9, np.zeros(33)].astype(np.int8))
def test_zre_size_matches_the_stream_walk(values):
    assert codec.zre_size(values) == oracles.zre_size(values)


@pytest.mark.parametrize("g", codec.GROUP_SIZES)
@settings(max_examples=30, deadline=None)
@given(blocks=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_or_index_is_the_row_or_at_every_group_size(g, blocks, seed):
    rng = np.random.default_rng(seed)
    c = g * blocks + int(rng.integers(1, g)) if g > 1 else blocks + 1  # G=1 pads nothing
    values = rng.integers(-128, 128, size=(2, c, 3, 3)).astype(np.int8)
    values[rng.random(values.shape) < 0.5] = 0
    groups = codec.partition_groups(values, g)
    for rows in (groups, codec.sm_encode(groups)):
        got = codec._or_index(rows)
        assert got.dtype == np.uint8
        assert np.array_equal(got, np.bitwise_or.reduce(rows.view(np.uint8), axis=1))
    assert codec.sparsity_stats(values, (g,)) == [oracles.sparsity_stats(values, g)]


@pytest.mark.parametrize("g", [3, 24, 40])
def test_or_index_other_row_lengths(g):
    # a column_index caller may hand in any row length; only powers of two from 8 take words
    rows = np.random.default_rng(g).integers(0, 256, size=(50, g), dtype=np.uint8)
    assert np.array_equal(codec._or_index(rows), np.bitwise_or.reduce(rows, axis=1))


@PROPERTY
@given(data=st.binary(max_size=70), step=st.integers(1, 3), rows=st.sampled_from([1, 2, 5]))
def test_popcount_sums_the_table(data, step, rows):
    flat = np.frombuffer(data, np.uint8)
    assert codec._popcount(flat) == int(oracles.POPCOUNT[flat].sum())
    assert codec._popcount(flat.view(np.int8)) == int(oracles.POPCOUNT[flat].sum())
    strided = flat[::step]
    assert codec._popcount(strided) == int(oracles.POPCOUNT[strided].sum())
    grid = flat[:len(flat) // rows * rows].reshape(rows, -1)
    for x in (grid, grid[:, ::step], grid.T):
        assert codec._popcount(x) == int(oracles.POPCOUNT[x].sum())


def _decodes_like_the_table(bits):
    before = np.array(bits, copy=True)
    got = codec.sm_decode(bits)
    assert got.dtype == np.int8 and got.shape == np.shape(bits)
    assert np.array_equal(got, oracles.sm_decode(bits))
    assert np.array_equal(bits, before)


@PROPERTY
@given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=9)),
       st.integers(1, 3))
@example(np.arange(256, dtype=np.uint8), 1)
def test_sm_decode_equals_the_value_table(bits, step):
    _decodes_like_the_table(bits)
    if bits.ndim:
        _decodes_like_the_table(bits[..., ::step])  # a strided view


@pytest.mark.parametrize("g", [1, 2, 4, 8, 16])
def test_sm_decode_reads_the_unpacked_groups(g):
    values = np.random.default_rng(g).integers(-128, 128, size=(3, 2 * g + 1, 3, 3))
    sm = codec.unpack_groups(codec.compress_layer(values.astype(np.int8), g, "bcs"))
    assert sm.flags.c_contiguous == (g >= 8)  # the sm[:, :g] view below 8
    _decodes_like_the_table(sm)


def test_sm_decode_takes_a_0d_array_and_a_list():
    for b in (0x00, 0x7F, 0x80, 0x81, 0xFF):
        _decodes_like_the_table(np.array(b, dtype=np.uint8))
    _decodes_like_the_table([0, 1, 127, 128, 129, 200, 255])


@pytest.mark.parametrize("g", [8, 16, 32])
def test_no_kernel_writes_into_its_input(g):
    rng = np.random.default_rng(g)
    values = np.clip(np.rint(rng.normal(0, 6, size=(6, 64, 1, 1))), -127, 127).astype(np.int8)
    values[rng.random(values.shape) < 0.1] = -128
    before = values.copy()
    assert np.shares_memory(codec.partition_groups(values, g), values)

    def unchanged(what):
        assert values.tobytes() == before.tobytes(), what

    codec.sm_encode(codec.partition_groups(values, g))
    unchanged("sm_encode")
    cl = codec.compress_layer(values, g, "bcs")
    cl.columns  # the deferred pack
    unchanged("compress_layer")
    assert engine.verify_layer(cl, values) == 0
    unchanged("verify_layer")
    codec.best_pack(values, "auto").columns
    unchanged("best_pack")
    codec.sparsity_stats(values, codec.GROUP_SIZES)
    unchanged("sparsity_stats")
    for z in (0, 3, 8):
        bitflip.flip_layer(values, g, z)
        unchanged(f"flip_layer z={z}")
