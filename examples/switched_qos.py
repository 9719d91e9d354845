#!/usr/bin/env python
"""QoS guarantees on a next-generation LAN, end to end.

The paper's opening motivation: ATM-class LANs "will supply quality of
service guarantees for connections.  Parallel programs may be able to
benefit from such guarantees."  This example runs the ``abl-switched``
ablation: 2DFFT under a link-saturating UDP flood on three networks —
the paper's shared Ethernet, a best-effort switch, and the same switch
with per-flow token-bucket reservations — and shows the reservation
holding the program's burst interval steady.

Run:  python examples/switched_qos.py
"""

from repro.harness.ablations import abl_switched


def main():
    print("Running 2DFFT under a link-saturating UDP flood on three "
          "networks...\n(each scenario simulates a full 6-iteration run)\n")
    art = abl_switched(seed=0)
    print(art.tables["scenarios"])
    print()
    for name, ok in sorted(art.checks.items()):
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
    print(
        "\nOn the shared medium the flood starves the program; a plain\n"
        "switch helps but best-effort queueing still inflates the burst\n"
        "interval; per-flow reservations restore it. This is exactly the\n"
        "service the [l(), b(), c] negotiation of examples/qos_negotiation.py\n"
        "would request."
    )


if __name__ == "__main__":
    main()
