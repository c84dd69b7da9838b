"""The Figure 2 circuits, pinned edge by edge.

Neither ``is_closed`` nor Φ can tell a circuit from a rotation or a
reordering of its edges, so this digest of every circuit's start word and
edge tuple is what holds ``build_ct_circuit`` to the circuits it has always
built: their edges, their order and their basepoint.
"""

import hashlib

from rwlab.casestudy import build_ct_circuit, ct_parameter_sweep

CIRCUITS_DIGEST = "5736c814f18e354a1fad4973f1ec5e05b5cd270479db53aeef32df3cb68f3fed"


def circuits_digest():
    """The sha256 of every circuit of ``ct_parameter_sweep(2, 2)``, 2 336 in
    all, each as the repr of its start word and edge tuple."""
    digest, n = hashlib.sha256(), 0
    for n, params in enumerate(ct_parameter_sweep(2, 2), 1):
        circuit = build_ct_circuit(params)
        digest.update(repr((circuit.start, circuit.edges)).encode())
    assert n == 2336
    return digest.hexdigest()


def test_every_circuit_of_the_small_sweep_is_pinned():
    assert circuits_digest() == CIRCUITS_DIGEST
