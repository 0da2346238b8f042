"""Tests for the bit-plane functional executor and its plane transforms."""

import numpy as np
import pytest

from repro.engine import (
    PLANE_LANE_BITS,
    adder_kernel,
    bitplane_outputs,
    cam_match_kernel,
    comparator_kernel,
    pack_bitplanes,
    plane_lanes,
    resolve_kernel,
    run_kernel,
    unpack_bitplanes,
    unpack_words,
)
from repro.engine.bitplane import (
    REPLAY_CACHE_CAPACITY,
    clear_replay_cache,
    ints_to_planes,
    planes_to_ints,
    replay_for_kernel,
)
from repro.engine.executors import _functional_outputs, _prepare_input_bits
from repro.errors import EngineError
from repro.obs.registry import get_registry


class TestPlaneTransforms:
    @pytest.mark.parametrize("words", [1, 63, 64, 65, 130])
    def test_pack_unpack_round_trip(self, words):
        rng = np.random.default_rng(words)
        bits = rng.integers(0, 2, size=(5, words), dtype=np.uint8)
        planes = pack_bitplanes(bits)
        assert planes.shape == (5, plane_lanes(words))
        assert planes.dtype == np.uint64
        assert np.array_equal(unpack_bitplanes(planes, words), bits)

    def test_lane_count(self):
        assert plane_lanes(1) == 1
        assert plane_lanes(PLANE_LANE_BITS) == 1
        assert plane_lanes(PLANE_LANE_BITS + 1) == 2
        with pytest.raises(EngineError):
            plane_lanes(0)

    def test_pad_bits_are_zero(self):
        bits = np.ones((2, 3), dtype=np.uint8)
        planes = pack_bitplanes(bits)
        assert planes.tolist() == [[0b111], [0b111]]

    def test_plane_int_round_trip(self):
        rng = np.random.default_rng(0)
        planes = rng.integers(0, 2**63, size=(4, 3), dtype=np.uint64)
        values = planes_to_ints(planes)
        assert np.array_equal(ints_to_planes(values, 3), planes)

    def test_validation(self):
        with pytest.raises(EngineError):
            pack_bitplanes(np.zeros(4, dtype=np.uint8))       # 1-D
        with pytest.raises(EngineError):
            pack_bitplanes(np.full((2, 3), 2, dtype=np.uint8))  # not 0/1
        with pytest.raises(EngineError):
            unpack_bitplanes(np.zeros((2, 1), dtype=np.uint32), 4)
        with pytest.raises(EngineError):
            unpack_bitplanes(np.zeros((2, 1), dtype=np.uint64), 65)


class TestBitChecks:
    """The three 0/1 guards reject ``2``, ``-1`` and ``0.5``; the
    raw-signal guard runs before the uint8 cast, which would otherwise
    wrap ``-1`` and truncate ``0.5`` into valid-looking bits."""

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_unpack_words_rejects(self, bad):
        with pytest.raises(EngineError, match="0/1"):
            unpack_words(np.array([[1, bad, 0]]))

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_pack_bitplanes_rejects(self, bad):
        with pytest.raises(EngineError, match="0/1"):
            pack_bitplanes(np.array([[1, bad, 0]]))

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_raw_signal_input_rejects(self, bad, as_array):
        kernel = resolve_kernel("adder", 2)
        signal = [0, bad] if not as_array else np.array([0, bad])
        operands = {name: [0, 1] for name in kernel.inputs}
        operands[kernel.inputs[0]] = signal
        with pytest.raises(EngineError, match="0/1"):
            _prepare_input_bits(kernel, operands)

    def test_bool_and_float_bits_still_accepted(self):
        kernel = resolve_kernel("adder", 2)
        operands = {name: np.array([True, False]) for name in kernel.inputs}
        operands[kernel.inputs[0]] = [1.0, 0.0]
        bits = _prepare_input_bits(kernel, operands)
        assert bits.dtype == np.uint8
        assert bits[0].tolist() == [1, 0]


class TestReplayCache:
    def setup_method(self):
        clear_replay_cache()

    def test_replay_memoised_by_digest(self):
        kernel = comparator_kernel()
        first = replay_for_kernel(kernel)
        second = replay_for_kernel(kernel)
        assert first is second

    def test_clear_forces_recompile(self):
        kernel = comparator_kernel()
        first = replay_for_kernel(kernel)
        clear_replay_cache()
        assert replay_for_kernel(kernel) is not first

    def test_capacity_is_bounded(self):
        assert REPLAY_CACHE_CAPACITY >= 1


class TestBitplaneExecution:
    @pytest.mark.parametrize("words", [1, 64, 65, 200])
    def test_bit_identical_to_functional(self, words):
        """The tentpole property at the replay layer, across lane
        boundaries (1 word, exactly one lane, one lane + 1, multi-lane).
        """
        kernel = adder_kernel(16)
        rng = np.random.default_rng(words)
        operands = {
            "a": rng.integers(0, 2**16, size=words).tolist(),
            "b": rng.integers(0, 2**16, size=words).tolist(),
        }
        bits = _prepare_input_bits(kernel, operands)
        planes = bitplane_outputs(kernel, bits)
        reference = _functional_outputs(kernel, bits)
        assert set(planes) == set(reference)
        for signal in reference:
            assert np.array_equal(planes[signal], reference[signal])

    def test_run_kernel_backend(self):
        kernel = adder_kernel(8)
        operands = {"a": [200, 1], "b": [100, 2]}
        result = run_kernel(kernel, operands,
                            backend="functional_bitplane")
        assert result.backend == "functional_bitplane"
        assert result.word("sum").tolist() == [44, 3]   # mod 256
        assert result.bit("cout").tolist() == [1, 0]
        functional = run_kernel(kernel, operands)
        assert result.energy == functional.energy
        assert result.latency == functional.latency

    def test_cam_match_backend_equality(self):
        kernel = cam_match_kernel(8)
        operands = {"a": [7, 9, 255], "b": [7, 8, 255]}
        result = run_kernel(kernel, operands,
                            backend="functional_bitplane")
        assert result.bit("match").tolist() == [1, 0, 1]

    def test_empty_batch_rejected(self):
        kernel = comparator_kernel()
        with pytest.raises(EngineError, match="empty"):
            bitplane_outputs(kernel, np.zeros((4, 0), dtype=np.uint8))

    def test_plane_counter_counts_lanes(self):
        counter = get_registry().counter("engine_bitplanes_executed_total")
        kernel = comparator_kernel()
        before = counter.value
        run_kernel(kernel, {"a": [1] * 65, "b": [1] * 65},
                   backend="functional_bitplane")
        assert counter.value == before + 2    # 65 words -> 2 lanes

    def test_dispatch_counter_labelled(self):
        counter = get_registry().counter("engine_executor_dispatch_total")
        labelled = counter.labels(backend="functional_bitplane")
        before = labelled.value
        run_kernel(comparator_kernel(), {"a": [1], "b": [2]},
                   backend="functional_bitplane")
        assert labelled.value == before + 1

