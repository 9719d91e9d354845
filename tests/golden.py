"""Golden trace digests shared by the purity tests.

A trace is digested over its original six columns (``retx`` excluded),
so the digests predate the fault subsystem and still pin every
fault-free run byte for byte.
"""

import hashlib

from numpy.lib import recfunctions as rfn

#: Fault-free smoke traces, seed 0, shared bus, P=4: ``(packets, digest)``.
GOLDEN_FAULT_FREE = {
    "sor": (108, "a1658e2d4009bb92"),
    "2dfft": (8269, "3f50f5937a4aa800"),
    "t2dfft": (5782, "e4206670c6a21cca"),
    "seq": (7199, "f3b78c55969fcb07"),
    "hist": (179, "5121643d758d0d4a"),
    "airshed": (13950, "e1219dcee2241270"),
}

#: ``2dfft`` smoke, seed 0, P=32 on the switched fabric: the regime
#: with hundreds of pending future events (32x32 TCP pipes, per-port
#: queues) that the P=4 goldens never reach.
GOLDEN_SWITCHED_P32 = (14880, "97c542a3073df99e")

_ORIGINAL_COLS = ["time", "size", "src", "dst", "proto", "kind"]


def legacy_digest(trace) -> str:
    """First 16 hex digits of the SHA-256 over the six original columns."""
    packed = rfn.repack_fields(trace.data[_ORIGINAL_COLS])
    return hashlib.sha256(packed.tobytes()).hexdigest()[:16]
