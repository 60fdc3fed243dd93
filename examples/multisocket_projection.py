#!/usr/bin/env python
"""Multi-socket projection -- beyond the paper, toward its companion [2].

The paper evaluates one socket; reference [2] asks how high-core-count
RISC-V behaves across sockets.  This example projects NPB strong scaling
over 1-8 SG2044 or EPYC sockets on three fabrics, with each kernel's
characteristic collective costed on an alpha-beta link model.

Run:  python examples/multisocket_projection.py
"""

from repro.mpi import ETHERNET_100G, INFINIBAND_HDR, PCIE5_FABRIC, cluster_sweep


def main() -> None:
    print("strong scaling, class C, InfiniBand HDR between sockets:")
    for machine in ("sg2044", "epyc7742"):
        print(f"  {machine}:")
        for kernel in ("ep", "ft", "cg", "mg"):
            sweep = cluster_sweep(machine, kernel, (1, 2, 4, 8))
            pts = "  ".join(
                f"{p.n_sockets}s {p.mops:>10,.0f}" for p in sweep
            )
            eff = sweep[-1].scaling_efficiency
            print(f"    {kernel.upper():3} {pts}   (8-socket eff {eff:.2f})")

    print("\nfabric sensitivity (FT, 8 sockets of SG2044):")
    for link in (PCIE5_FABRIC, INFINIBAND_HDR, ETHERNET_100G):
        sweep = cluster_sweep("sg2044", "ft", (8,), link=link)
        p = sweep[0]
        print(
            f"  {link.name:<22} {p.mops:>12,.0f} Mop/s "
            f"(comm {100 * p.comm_fraction:.0f}% of runtime)"
        )
    print(
        "\nEP clusters perfectly; FT's transposes make the fabric choice "
        "matter -- the same\nbandwidth story as on-chip, one level up."
    )


if __name__ == "__main__":
    main()
