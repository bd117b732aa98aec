"""Strategies agree at the edge shapes of EvalSpec x RuntimeConfig.

A seeded hypothesis property over the shapes where word and tile
boundaries bite: one-row and five-row batches, streams of one clock,
one clock either side of a 64-clock word and a stream that ends two
clocks into its third word, and tiles of 1, 3, 7, 63 and 65 clocks that
split words.  On the mid-SNR circuit, where receiver noise really flips
decisions, the one-shot, tiled and sharded runs of every SNG kind must
report the same counts, and the one-shot result's decoded per-clock
fields must equal the byte-wise reference pass's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.session import EvalSpec, Evaluator
from repro.simulation.runtime import RuntimeConfig
from repro.stochastic.sng import SNG_KINDS

import packed_reference as reference

PER_CLOCK_FIELDS = (
    "received_power_mw",
    "output_bits",
    "ideal_bits",
    "select_levels",
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    batch=st.sampled_from([1, 2, 5]),
    length=st.sampled_from([1, 63, 64, 65, 130]),
    chunk_length=st.sampled_from([1, 3, 7, 63, 65]),
    workers=st.sampled_from([0, 2]),
    sng_kind=st.sampled_from(SNG_KINDS),
    seed=st.integers(0, 2**16),
)
def test_strategies_agree_at_edge_shapes(
    mid_snr, batch, length, chunk_length, workers, sng_kind, seed
):
    xs = np.random.default_rng(seed).random(batch)
    spec = EvalSpec(length=length, sng_kind=sng_kind)

    def evaluate(runtime):
        session = Evaluator(mid_snr, spec, runtime)
        return session.evaluate(xs, rng=np.random.default_rng([seed, 1]))

    one_shot = evaluate(RuntimeConfig(workers=0))
    others = [
        evaluate(
            RuntimeConfig(
                workers=workers, backend="thread", chunk_length=chunk_length
            )
        ),
        evaluate(RuntimeConfig(workers=2, backend="thread")),
    ]
    for other in others:
        for name in ("values", "ones_count", "transmission_bit_errors"):
            assert np.array_equal(getattr(one_shot, name), getattr(other, name))
    with reference.installed():
        expected = evaluate(RuntimeConfig(workers=0))
    for name in PER_CLOCK_FIELDS:
        assert np.array_equal(getattr(one_shot, name), getattr(expected, name))
