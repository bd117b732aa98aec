"""The bit protocol, pinned by absolute digests.

Every parity matrix compares production with the reference in
``tests/packed_reference.py``, and both share the stream front end, the
seed schedule and the noise sampler — a change there shifts both sides
and still passes.  This module pins the bits themselves: three small
fixed calls, one shaped like each benchmark workload, hashed to sha256
digests recorded when the protocol was last changed on purpose.

* ``oneshot-noisy``: a noisy, rng-seeded LFSR one-shot call on the
  mid-SNR circuit, where receiver noise really flips decisions;
* ``stream-fault``: a fixed-seed ``Evaluator.stream`` call under flip,
  shift and drift faults, in four tiles;
* ``serve-single``: a fixed-seed noiseless call at B=1, L=4096.
"""

import hashlib

import numpy as np
import pytest

import repro
from repro.simulation.kernels import pack_bits

PROTOCOL_DIGESTS = {
    "oneshot-noisy": (
        "d431ed8ff301e358ca96ac7551d678b5e314d83953931ce738233b0e54652458"
    ),
    "stream-fault": (
        "018996d1d73ec72caa9cc42b4c283d5d2861cde5371e947ecba5f41682b5795b"
    ),
    "serve-single": (
        "bcd55308ddc0b45199a2a509677459730e420c5a5fdf7f0a6c69eb82c3205d36"
    ),
}
"""sha256 of each call's bits (see :func:`protocol_digest`)."""


def _design_circuit(**design):
    """The order-2 test circuit of ``tests/conftest.py`` at *design*."""
    return repro.OpticalStochasticCircuit.from_design(
        repro.mrr_first_design(order=2, **design),
        repro.BernsteinPolynomial([0.25, 0.625, 0.375]),
    )


def _oneshot_noisy():
    circuit = _design_circuit(wl_spacing_nm=0.3, probe_power_mw=0.06)
    session = repro.Evaluator(circuit, repro.EvalSpec(length=2048))
    return session.evaluate(
        np.linspace(0.05, 0.95, 8), rng=np.random.default_rng(1)
    )


def _stream_fault():
    fault = repro.FaultSpec(
        flip_probability=0.01, shift_clocks=5, drift_ramp_per_mclock=0.25
    )
    spec = repro.EvalSpec(
        length=1 << 14, noisy=False, base_seed=2019, fault=fault
    )
    session = repro.Evaluator(_design_circuit(wl_spacing_nm=1.0), spec)
    return session.stream(np.linspace(0.1, 0.9, 8), chunk_length=1 << 12)


def _serve_single():
    spec = repro.EvalSpec(length=4096, noisy=False, base_seed=2019)
    session = repro.Evaluator(_design_circuit(wl_spacing_nm=1.0), spec)
    return session.evaluate([0.3])


CALLS = {
    "oneshot-noisy": (_oneshot_noisy, True),
    "stream-fault": (_stream_fault, False),
    "serve-single": (_serve_single, True),
}
"""Each call, and whether it is one-shot (its output bits are hashed)."""


def protocol_digest(result, one_shot):
    """sha256 over a result's values, error counts and output bits.

    A one-shot result contributes its packed output words; a streamed
    result, which keeps no per-clock bits, its ones counts.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.values, dtype=np.float64))
    digest.update(
        np.ascontiguousarray(result.transmission_bit_errors, dtype=np.int64)
    )
    if one_shot:
        digest.update(pack_bits(result.output_bits))
    else:
        digest.update(np.ascontiguousarray(result.ones_count, dtype=np.int64))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bits_match_the_recorded_protocol(name):
    call, one_shot = CALLS[name]
    assert protocol_digest(call(), one_shot) == PROTOCOL_DIGESTS[name], (
        f"the bits of the {name!r} call changed.  A deliberate change to "
        "the bit protocol bumps the protocol version (the noise protocol "
        "in the evaluation cache key, for noisy bits), records the new "
        "digests here and says what changed and why in CHANGES.md."
    )
