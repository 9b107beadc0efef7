"""Differential test: the batched gossip kernel against its allocating form.

:func:`~repro.simulation.diffusion.gossip_rounds_batch` draws each round's
peers in row blocks of ``(rows, n * fanout)`` matrices, shifts and offsets
them in place, and selects pushed and adopted versions branch-free instead
of with ``np.where``.  :func:`reference_gossip_rounds_batch` below is the
body it replaced — one whole ``(trials, n, fanout)`` draw per round, a
broadcast self-skip, a broadcast value ravel and two ``np.where`` selects —
kept here as the oracle.

Both consume the same C-order stream of integers, so on every input the
kernel must return the reference's matrix bit for bit, in the input's
dtype, leave its input unmutated, and leave the generator in the same
state (the draws consumed are identical) — whatever the block size,
down to one row per block.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.quorum.base import MASK_BLOCK_RANKS
from repro.simulation import diffusion
from repro.simulation.diffusion import gossip_rounds_batch

#: A version strictly above anything an eligible server legitimately holds.
FORGED_VERSION = 999


def reference_gossip_rounds_batch(
    versions: np.ndarray,
    eligible: np.ndarray,
    fanout: int,
    rounds: int,
    generator: np.random.Generator,
) -> np.ndarray:
    """The allocating kernel: broadcast draws, ``np.where`` selects."""
    trials, n = versions.shape
    if fanout < 0:
        raise ConfigurationError(f"gossip fanout must be non-negative, got {fanout}")
    if fanout >= n:
        raise ConfigurationError(
            f"gossip fanout must be smaller than the cluster size {n}, got {fanout}"
        )
    if rounds < 0:
        raise ConfigurationError(f"round count must be non-negative, got {rounds}")
    current = versions.copy()
    if trials == 0 or rounds == 0 or fanout == 0:
        return current
    row_offset = (np.arange(trials, dtype=np.int64) * n)[:, None, None]
    for _ in range(rounds):
        pushed = np.where(eligible, current, -1)
        # Uniform peer != self: draw from n-1 and shift past the sender.
        raw = generator.integers(0, n - 1, size=(trials, n, fanout))
        peers = raw + (raw >= np.arange(n)[None, :, None])
        incoming = np.full(trials * n, -1, dtype=current.dtype)
        np.maximum.at(
            incoming,
            (peers + row_offset).ravel(),
            np.broadcast_to(pushed[:, :, None], peers.shape).ravel(),
        )
        incoming = incoming.reshape(trials, n)
        current = np.where(eligible, np.maximum(current, incoming), current)
    return current


def random_state(trials, n, seed, dtype, forged_servers):
    """Versions in ``[-1, 5]``, an 80 % eligibility mask, forged holders.

    The last ``forged_servers`` servers hold :data:`FORGED_VERSION` and are
    ineligible — the batch analogue of a Byzantine replica.
    """
    generator = np.random.default_rng(seed)
    versions = generator.integers(-1, 6, size=(trials, n)).astype(dtype)
    eligible = generator.random(size=(trials, n)) < 0.8
    if forged_servers:
        versions[:, n - forged_servers:] = FORGED_VERSION
        eligible[:, n - forged_servers:] = False
    return versions, eligible


def assert_kernels_agree(versions, eligible, fanout, rounds, seed):
    before = versions.copy()
    expected_rng = np.random.default_rng(seed)
    actual_rng = np.random.default_rng(seed)
    expected = reference_gossip_rounds_batch(versions, eligible, fanout, rounds, expected_rng)
    actual = gossip_rounds_batch(versions, eligible, fanout, rounds, actual_rng)
    assert actual.dtype == expected.dtype == versions.dtype
    assert np.array_equal(actual, expected)
    assert actual is not versions
    assert np.array_equal(versions, before)
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


class TestKernelMatchesReference:
    @given(
        trials=st.integers(min_value=0, max_value=8),
        n=st.integers(min_value=2, max_value=16),
        fanout_share=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        rounds=st.integers(min_value=0, max_value=4),
        dtype=st.sampled_from([np.int32, np.int64]),
        forged_share=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_batches(self, trials, n, fanout_share, rounds, dtype, forged_share, seed):
        fanout = int(fanout_share * n)  # 0 .. n-1
        versions, eligible = random_state(trials, n, seed, dtype, int(forged_share * n))
        assert_kernels_agree(versions, eligible, fanout, rounds, seed + 1)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n,fanout,rounds", [(2, 1, 3), (16, 3, 4), (16, 15, 2)])
    def test_chunk_sized_batch(self, n, fanout, rounds, dtype):
        # One row past the engine's default chunk of 4096 trials.
        versions, eligible = random_state(4097, n, 31, dtype, forged_servers=2)
        assert_kernels_agree(versions, eligible, fanout, rounds, 32)


class TestRowBlocks:
    """Rounds split into row blocks still draw and adopt as one whole-matrix round."""

    @given(
        trials=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=2, max_value=16),
        fanout_share=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        rounds=st.integers(min_value=1, max_value=3),
        block_rows=st.sampled_from([1, 3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_batches_in_small_blocks(
        self, trials, n, fanout_share, rounds, block_rows, seed
    ):
        fanout = max(1, int(fanout_share * n))  # 1 .. n-1
        versions, eligible = random_state(trials, n, seed, np.int64, forged_servers=1)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(diffusion, "MASK_BLOCK_RANKS", block_rows * n * fanout)
            assert_kernels_agree(versions, eligible, fanout, rounds, seed + 1)

    @pytest.mark.parametrize("block_rows", [1, 3, None])
    @pytest.mark.parametrize("n,fanout", [(25, 2), (100, 2), (1000, 3)])
    def test_engine_sized_clusters(self, monkeypatch, n, fanout, block_rows):
        if block_rows is None:  # the shipped block size
            block_rows = MASK_BLOCK_RANKS // (n * fanout)
        else:
            monkeypatch.setattr(diffusion, "MASK_BLOCK_RANKS", block_rows * n * fanout)
        # Two whole blocks and one row more.  Byte-wide versions, as the
        # engine's histories hold them; the forged holders keep a version a
        # byte can carry.
        versions, eligible = random_state(2 * block_rows + 1, n, 41, np.int8, forged_servers=0)
        versions[:, -3:] = 100
        eligible[:, -3:] = False
        assert_kernels_agree(versions, eligible, fanout, 2, 42)

    def test_draws_after_the_round_continue_the_stream(self, monkeypatch):
        # Odd-sized blocks leave half a 32-bit word in the generator state;
        # the next draw must pick up where one whole-matrix draw would.
        monkeypatch.setattr(diffusion, "MASK_BLOCK_RANKS", 3 * 7 * 1)
        versions, eligible = random_state(5, 7, 3, np.int32, forged_servers=0)
        expected_rng, actual_rng = np.random.default_rng(9), np.random.default_rng(9)
        reference_gossip_rounds_batch(versions, eligible, 1, 1, expected_rng)
        gossip_rounds_batch(versions, eligible, 1, 1, actual_rng)
        after = actual_rng.integers(0, 6, size=11)
        assert np.array_equal(after, expected_rng.integers(0, 6, size=11))
        assert actual_rng.random() == expected_rng.random()


class TestEligibilityShape:
    @pytest.mark.parametrize("shape", [(6,), (1, 6), (4, 1), (6, 4), (2, 4, 6)])
    def test_misshapen_mask_refused(self, shape):
        versions = np.zeros((4, 6), dtype=np.int32)
        eligible = np.ones(shape, dtype=bool)
        with pytest.raises(ConfigurationError, match="eligibility mask shape"):
            gossip_rounds_batch(versions, eligible, 2, 1, np.random.default_rng(0))
