"""Checks of the test reference itself (``tests/packed_reference.py``).

The parity matrices compare production against the reference pass, so
they show something only if the reference really runs when installed
and its own building blocks agree with what they stand for.
"""

import numpy as np
import pytest

import packed_reference as reference
import repro
from repro.simulation import engine, runtime
from repro.simulation.faultmodel import FaultSpec, PackedFaultChannel
from repro.simulation.kernels import (
    FlipCandidates,
    pack_bits,
    pass_context,
    unpack_bits,
)


@pytest.fixture(scope="module")
def circuit():
    return repro.OpticalStochasticCircuit(
        repro.paper_section5a_parameters(),
        repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
    )


class TestInstalled:
    def test_one_shot_and_tile_loop_run_the_reference(
        self, circuit, monkeypatch
    ):
        calls = []
        for name in ("optical_pass", "tile_statistics"):
            original = getattr(reference, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(reference, name, spy)
        with reference.installed():
            repro.Evaluator(circuit, repro.EvalSpec(length=200)).evaluate(
                [0.5]
            )
            runtime.simulate_chunked(
                circuit, [0.5], length=200, chunk_length=64, workers=0
            )
        # One one-shot pass, then four tiles that each run the pass.
        assert calls == ["optical_pass"] + [
            "tile_statistics",
            "optical_pass",
        ] * 4

    def test_block_exit_restores_production(self):
        production = (engine.packed_optical_pass, runtime.packed_tile_statistics)
        with pytest.raises(RuntimeError):
            with reference.installed():
                assert engine.packed_optical_pass is not production[0]
                raise RuntimeError("leave the block early")
        assert (
            engine.packed_optical_pass,
            runtime.packed_tile_statistics,
        ) == production

    def test_unknown_pass_is_rejected(self):
        with pytest.raises(ValueError):
            reference.running("numpy")


class TestBuildingBlocks:
    def test_apply_bits_matches_apply_words(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(3, 500), dtype=np.uint8)
        spec = FaultSpec(flip_probability=0.1, shift_clocks=3)
        seeds = np.arange(3, dtype=np.int64) + 40
        via_words = unpack_bits(
            PackedFaultChannel(spec, seeds, 500).apply_words(
                pack_bits(bits), 0, 500
            ),
            500,
        )
        via_bits = reference.apply_bits(
            PackedFaultChannel(spec, seeds, 500), bits, 0
        )
        assert np.array_equal(via_words, via_bits)

    def test_pattern_index_reads_channel_c_into_bit_c(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, size=(2, 3, 70), dtype=np.uint8)
        expected = bits[:, 0] + 2 * bits[:, 1] + 4 * bits[:, 2]
        assert np.array_equal(reference.pattern_index(bits), expected)

    def test_decide_batch_thresholds_the_noisy_current(self, circuit):
        receiver = pass_context(circuit).receiver
        powers = np.full((1, 3), 0.0)
        step = receiver.threshold_a - receiver.detector.photocurrent_a(0.0)
        noise = np.array([[0.0, 2.0 * step, 0.5 * step]])
        assert reference.decide_batch(receiver, powers, noise).tolist() == [
            [0, 1, 0]
        ]
        with pytest.raises(repro.ConfigurationError):
            reference.decide_batch(receiver, powers, noise[:, :2])

    def test_toggle_flips_accepts_below_the_key_threshold(self):
        circuit = repro.OpticalStochasticCircuit.from_design(
            repro.mrr_first_design(
                order=2, wl_spacing_nm=0.3, probe_power_mw=0.06
            ),
            repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
        )
        receiver = pass_context(circuit).receiver
        powers = np.unique(pass_context(circuit).table)
        currents = receiver.detector.photocurrent_a(powers)
        p = np.asarray(
            [reference.flip_probability(receiver, i) for i in currents]
        )
        likeliest, rarest = powers[np.argmax(p)], powers[np.argmin(p)]
        assert p.max() == reference.flip_rate(circuit) > 2.0 * p.min()
        # The likeliest key accepts every draw; a rarer one only draws
        # below sigma * Phi^-1(p / q) < 0.
        row = np.asarray([[likeliest, rarest, rarest, likeliest]])
        bits = np.zeros(row.shape, dtype=np.uint8)
        candidates = FlipCandidates(
            np.zeros(3, dtype=np.int64),
            np.asarray([0, 1, 2]),
            np.asarray([1.0, 0.0, -1.0]),
        )
        reference.toggle_flips(circuit, row, bits, candidates)
        assert bits.tolist() == [[1, 0, 1, 0]]
