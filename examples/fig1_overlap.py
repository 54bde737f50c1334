#!/usr/bin/env python3
"""Why global traffic is the critical traffic: the paper's Fig. 1 story.

Section II.C argues with two loads: a core issues requests P1 and P2 back
to back and stalls until *both* replies are in (memory-level parallelism).
The stall is the longest round trip, not the sum, so a request costs only
the part of its latency that sticks out past its companions. If P2 is
regional its latency hides under P1's; if it is global, most of it lands
on the program's critical path. That is the case for RAIR favouring
foreign (global) packets by default.

The 20- and 60-cycle round trips below are illustrative numbers chosen
for this walk-through; the paper gives no values, so nothing here is a
reproduced result.

Run:  python examples/fig1_overlap.py
"""

REGIONAL = 20.0  # round trip of an intra-region request, cycles
GLOBAL = 60.0  # round trip of an inter-region request, cycles


def stall(latencies, compute_overlap=0.0):
    """Stall of a batch of outstanding requests: the longest round trip
    minus the independent work the core overlaps with it."""
    return max(0.0, max(latencies, default=0.0) - compute_overlap)


def extra_stall(latency, others):
    """What one request adds on top of its companions' stall."""
    return max(0.0, latency - max(others, default=0.0))


def main() -> None:
    p1 = REGIONAL
    print(f"P1 is regional: {p1:.0f}-cycle round trip.")
    print(f"P2 regional ({REGIONAL:.0f}): batch stalls {stall([p1, REGIONAL]):.0f}, "
          f"P2 adds {extra_stall(REGIONAL, [p1]):.0f} cycles")
    print(f"P2 global   ({GLOBAL:.0f}): batch stalls {stall([p1, GLOBAL]):.0f}, "
          f"P2 adds {extra_stall(GLOBAL, [p1]):.0f} cycles")
    print(f"Sum of latencies would say {p1 + GLOBAL:.0f}; MLP overlap says "
          f"{stall([p1, GLOBAL]):.0f}.")

    print("\nSpeeding one request up pays only while it is the longest:")
    for target in (50.0, 30.0, 20.0, 10.0):
        saved = extra_stall(GLOBAL, [p1]) - extra_stall(target, [p1])
        print(f"  global P2 {GLOBAL:.0f} -> {target:4.0f} cycles saves {saved:4.0f}")
    for target in (15.0, 5.0):
        saved = extra_stall(REGIONAL, [GLOBAL]) - extra_stall(target, [GLOBAL])
        print(f"  regional P1 beside a global P2, {REGIONAL:.0f} -> {target:4.0f} "
              f"cycles saves {saved:4.0f}")

    work = 30.0
    print(f"\nWith {work:.0f} cycles of independent work overlapped, the global "
          f"batch stalls {stall([p1, GLOBAL], work):.0f} cycles and a "
          f"regional one {stall([p1, REGIONAL], work):.0f}.")


if __name__ == "__main__":
    main()
