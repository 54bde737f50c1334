"""Model test: an input VC's framing counters against a list of arrival cycles.

The kernel keeps a VC's buffer as ``flits_recv - flits_sent`` plus the
cycle of the newest arrival. The reference model here keeps it as the
list of every buffered flit's arrival cycle, oldest first. One VC of a
real router is driven through random interleavings of flit arrivals,
credit returns and sends (``schedule_arrival`` / ``schedule_credit`` /
``deliver_events`` / ``send_flit``), at most one arrival per cycle as on
a link. Every cycle, ``occupancy()`` and ``wants_sa(cycle)`` must agree
with the model. On a credit that takes the output VC from 0 to 1, so must
the router's SA arming: pending iff a flit is buffered, held to next
cycle iff the oldest one arrived in this one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_simulation
from repro.noc.config import NocConfig
from repro.noc.flit import Packet

# Node 0 of a 4x4 mesh: no link feeds input port 1, so sends return no
# credit upstream; output port 3 is a link.
IN_PORT, OUT_PORT, OUT_VC = 1, 3, 1
# per cycle: (a flit arrives, a credit returns, the VC sends if it may)
cycles = st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=40)


@settings(max_examples=300, deadline=None)
@given(length=st.integers(1, 5), credits=st.integers(0, 3), script=cycles)
def test_counters_agree_with_arrival_list(length, credits, script):
    _, net = build_simulation(NocConfig(width=4, height=4), scheme="rr", routing="xy")
    router = net.routers[0]
    invc = router.in_vcs[IN_PORT][0]
    row = router.out_credits[OUT_PORT]
    depth = router.vc_depth
    net.schedule_arrival(0, 0, IN_PORT, 0, Packet(src=1, dst=4, length=length, inject_cycle=0))
    net.deliver_events(0)
    router._grant(invc, OUT_PORT * router.total_vcs + OUT_VC, 1)
    router.set_out_credits(OUT_PORT, OUT_VC, credits)
    model = [0]  # arrival cycle of each buffered flit, oldest first
    recv = 1
    for cycle, (arrive, credit, send) in enumerate(script, start=2):
        router.sa_hold = 0  # what do_sa does first every cycle
        if arrive and recv < length:
            net.schedule_arrival(cycle, 0, IN_PORT, 0, None)
            model.append(cycle)
            recv += 1
        was = row[OUT_VC]
        if credit and was < depth:
            net.schedule_credit(cycle, 0, OUT_PORT, OUT_VC)
        net.deliver_events(cycle)
        assert invc.occupancy() == len(model)
        sendable_by_model = bool(model) and model[0] < cycle  # sa_ready is 2
        assert invc.wants_sa(cycle) == sendable_by_model
        if was == 0 and row[OUT_VC] == 1:
            assert bool(router.sa_pending & invc.bit) == bool(model)
            assert bool(router.sa_hold & invc.bit) == (bool(model) and model[0] >= cycle)
        if send and sendable_by_model and row[OUT_VC] > 0:
            net.send_flit(router, invc, cycle)
            model.pop(0)
            if invc.pkt is None:  # the tail left: the VC is released
                assert not model and recv == length
                break
