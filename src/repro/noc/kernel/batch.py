"""The batch kernel: struct-of-arrays state, stage-bulk scans.

The production engine and registry default, held to the exact-results
contract (see :mod:`repro.noc.kernel.base`): for any run configuration
the stats digests and trace streams match the reference bit for bit.
What changes is how each cycle finds its work:

* **Struct-of-arrays state** (:class:`~repro.noc.kernel.soa.SoAState`).
  Per-VC pipeline scalars live in flat parallel arrays indexed by a
  global slot number instead of attributes on ``VirtualChannel``
  objects; mutable containers (arrival deques, occupied sets, link
  credit tables) are aliased, so the object model the rest of the
  system reads stays live.
* **Active-index vectors.**  Each router keeps two sorted slot lists —
  ``pend`` (ROUTE/VA heads) and ``act`` (ACTIVE ones) — maintained at
  state transitions.  The RC/VA and switch stages iterate exactly the
  occupied slots instead of scanning every port×VC state (~6×VCs
  reads per active router to find a handful of heads).  Because
  slot numbering follows (port insertion order, VC index), ascending
  slot order *is* the reference arbitration scan order, so candidate
  lists come out pre-sorted and per-port request order is free.
* **Slot-addressed event wheel.**  Wheel buckets carry ``(slot,
  packet)`` 2-tuples; each output link's downstream slot base is
  precomputed, so delivery is two list reads instead of router → port →
  VC object chasing.
* **Batched counters.**  Activity counts and per-link flit tallies
  accumulate in locals/flat arrays and flush into ``NetworkStats`` at
  the end of every :meth:`step` / :meth:`step_block` and before every
  :meth:`rewire` — nothing reads them mid-cycle, and every public API
  boundary sees exact totals.
  Per-packet records (injections, deliveries, latency, traces) stay
  per-event, so windows, drains, and observation are unaffected.

Everything ordering-sensitive is preserved: the ``net.active`` mutation
sequence (including the transient drop/re-add of routers whose only
flits are still in flight), deferred-op replay order, per-port
round-robin arithmetic, same-cycle credit returns, and the multicast
capacity quirk (tail flits read the released head's empty target list).
``tests/test_kernel_equiv.py`` holds it to the reference's stats and
trace digests across traffic × routing × faults × multicast × control
retunes.
"""

from __future__ import annotations

from bisect import insort
from time import perf_counter
from typing import Callable, Optional, TYPE_CHECKING

from repro.noc.kernel.base import (
    SimKernel, advance_faults, register, replay_active_ops,
)
from repro.noc.kernel.interface import insort as ni_insort
from repro.noc.kernel.rc_va import compute_route
from repro.noc.kernel.soa import SoAState

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network

# Batched-activity accumulator indices (flushed by _flush).
_CYCLES, _BWRITES, _XBAR, _LOCAL, _MESH, _RF, _MESH_MM = range(7)


class BatchKernel(SimKernel):
    """Struct-of-arrays execution of the same pipeline semantics."""

    name = "batch"

    def __init__(self, net: "Network"):
        super().__init__(net)
        self._ops: list[int] = []
        self._acc: list = [0, 0, 0, 0, 0, 0, 0.0]
        self._s: Optional[SoAState] = None
        self.rewire()

    # -- cache construction --------------------------------------------------

    def rewire(self) -> None:
        """(Re)build the SoA state and the event wheel.

        Only called on a quiescent network (construction,
        ``use_kernel``, ``apply_shortcuts``), so rebuilding from the
        all-idle object model is exact.  A control retune lands
        mid-``step_block`` (the tick calls ``apply_shortcuts``), so the
        per-link tallies the old state still holds are flushed first.
        """
        net = self.net
        if self._s is not None:
            self._flush()
        s = self._s = SoAState(net)
        max_latency = 1
        for row in s.links6:
            for link in row:
                if link is not None and link.latency_cycles > max_latency:
                    max_latency = link.latency_cycles
        # Slots in flight at cycle c span (c, c + 1 + max_latency]; +3
        # leaves margin so a bucket is always drained before reuse.
        size = self._wsize = max_latency + 3
        self._arrivals: list[list] = [[] for _ in range(size)]
        self._deliveries: list[list] = [[] for _ in range(size)]

    # -- counter flush -------------------------------------------------------

    def _flush(self) -> None:
        """Fold the batched counters into ``NetworkStats``."""
        stats = self.net.stats
        acc = self._acc
        if acc[_CYCLES] or acc[_BWRITES] or acc[_XBAR]:
            a = stats.activity
            a.cycles += acc[_CYCLES]
            a.buffer_writes += acc[_BWRITES]
            a.switch_traversals += acc[_XBAR]
            a.local_flit_hops += acc[_LOCAL]
            a.mesh_flit_hops += acc[_MESH]
            a.rf_flits += acc[_RF]
            a.mesh_flit_mm += acc[_MESH_MM]
            acc[_CYCLES] = acc[_BWRITES] = acc[_XBAR] = 0
            acc[_LOCAL] = acc[_MESH] = acc[_RF] = 0
            acc[_MESH_MM] = 0.0
        s = self._s
        touched = s.lftouched
        if touched:
            link_flits = stats.link_flits
            keys = s.lfkey
            counts = s.lfcnt
            for lid in touched:
                link_flits[keys[lid]] += counts[lid]
                counts[lid] = 0
            del touched[:]

    # -- the cycle -----------------------------------------------------------

    def step(self) -> None:
        """Advance the network by one cycle."""
        if self.stage_profile is not None:
            self._step_profiled(self.stage_profile)
            return
        self._cycle()
        self._flush()

    def step_block(
        self,
        cycles: int,
        tick: Optional[Callable[[], None]] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Bulk cycle loop: counters flush once per block, not per cycle."""
        if self.stage_profile is not None:
            step = self.step
            for _ in range(cycles):
                if stop is not None and stop():
                    return
                if tick is not None:
                    tick()
                step()
            return
        cycle = self._cycle
        try:
            if tick is None and stop is None:
                for _ in range(cycles):
                    cycle()
            elif stop is None:
                for _ in range(cycles):
                    tick()
                    cycle()
            else:
                for _ in range(cycles):
                    if stop():
                        break
                    if tick is not None:
                        tick()
                    cycle()
        finally:
            self._flush()

    def _cycle(self) -> None:
        net = self.net
        c = net.cycle = net.cycle + 1
        stats = net.stats
        in_window = stats.measure_start <= c < stats.measure_end
        if in_window:
            self._acc[_CYCLES] += 1
        if net.fault_state is not None:
            advance_faults(net, c)
        slot = c % self._wsize
        bucket = self._arrivals[slot]
        if bucket:
            self._deliver_arrivals(net, c, in_window, bucket)
        bucket = self._deliveries[slot]
        if bucket:
            self._complete_ejections(net, c, bucket)
        if net._ni_busy:
            self._run_interfaces(net, c)
        if net.active:
            self._run_rc_va(net, c)
            self._run_switch(net, c, in_window)

    def _step_profiled(self, sp) -> None:
        """The same cycle with per-stage wall-clock accounting."""
        net = self.net
        c = net.cycle = net.cycle + 1
        stats = net.stats
        in_window = stats.measure_start <= c < stats.measure_end
        if in_window:
            self._acc[_CYCLES] += 1
        if net.fault_state is not None:
            advance_faults(net, c)
        sp.cycles += 1
        slot = c % self._wsize
        t0 = perf_counter()
        bucket = self._arrivals[slot]
        if bucket:
            self._deliver_arrivals(net, c, in_window, bucket)
        bucket = self._deliveries[slot]
        if bucket:
            self._complete_ejections(net, c, bucket)
        t1 = perf_counter()
        if net._ni_busy:
            self._run_interfaces(net, c)
        t2 = perf_counter()
        if net.active:
            self._run_rc_va(net, c)
            t3 = perf_counter()
            self._run_switch(net, c, in_window)
        else:
            t3 = perf_counter()
        self._flush()
        t4 = perf_counter()
        sp.arrivals_s += t1 - t0
        sp.ni_s += t2 - t1
        sp.rc_va_s += t3 - t2
        sp.sa_st_s += t4 - t3

    # -- stage: arrivals / ejections ----------------------------------------

    def _deliver_arrivals(self, net, c, in_window, bucket) -> None:
        s = self._s
        st = s.st
        pk = s.pk
        arr = s.arr
        rcv = s.rcv
        ha = s.ha
        rid_of = s.rid
        vidx = s.vidx
        occ = s.occ
        vobj = s.vobj
        pend = s.pend
        active = net.active
        obs = net.observation if in_window else None
        if in_window:
            # Every bucket entry is exactly one flit arriving = one buffer
            # write; count the batch in one add.
            self._acc[_BWRITES] += len(bucket)
        for slot, packet in bucket:
            rid = rid_of[slot]
            if st[slot] == 0:                        # IDLE -> ROUTE
                st[slot] = 1
                pk[slot] = packet
                vobj[slot].packet = packet           # for compute_route
                ha[slot] = c
                insort(pend[rid], slot)
            arr[slot].append(c)
            rcv[slot] += 1
            occ[slot].add(vidx[slot])
            if obs is not None:
                obs.on_buffer_write(rid, s.pport[slot], c, packet)
            active.add(rid)
        del bucket[:]

    def _complete_ejections(self, net, c, bucket) -> None:
        stats = net.stats
        open_deliveries = net._open_deliveries
        hooks = net.delivery_hooks
        obs = net.observation
        for packet in bucket:
            if packet.tail_eject_cycle < c:
                packet.tail_eject_cycle = c
            stats.record_delivery(packet, c)
            observed = obs is not None and stats.in_window(packet.inject_cycle)
            if observed:
                obs.on_deliver(packet, c)
            remaining = open_deliveries.get(packet.uid, 0) - 1
            if remaining <= 0:
                open_deliveries.pop(packet.uid, None)
                net._open_packets -= 1
                stats.record_completion(packet)
                if observed:
                    obs.on_complete(packet, c)
            else:
                open_deliveries[packet.uid] = remaining
            for hook in hooks:
                hook(packet, c)
        del bucket[:]

    # -- stage: interface injection -----------------------------------------

    def _run_interfaces(self, net, c) -> None:
        busy = net._ni_busy
        interfaces = net.interfaces
        num_vcs = net.num_vcs
        lbase = self._s.lbase
        bucket = self._arrivals[(c + 1) % self._wsize]
        done = None
        for rid in busy:
            ni = interfaces[rid]
            queue = ni.queue
            senders = ni.senders
            order = ni.order
            link = ni.link
            if queue:
                vc_busy = link.vc_busy
                while queue:
                    vci = -1                         # allocate_vc, inlined
                    for i in range(num_vcs):
                        if not vc_busy[i]:
                            vc_busy[i] = True
                            vci = i
                            break
                    if vci < 0:
                        break
                    packet = queue.popleft()
                    senders[vci] = [packet, packet.num_flits]
                    ni_insort(order, vci)
            if senders:
                n = len(order)
                start = ni.rr % n
                credits = link.credits
                base = lbase[rid]
                for offset in range(n):
                    vci = order[(start + offset) % n]
                    if credits[vci] <= 0:
                        continue
                    entry = senders[vci]
                    packet = entry[0]
                    remaining = entry[1]
                    credits[vci] -= 1
                    if remaining == packet.num_flits:
                        packet.head_inject_cycle = c
                    bucket.append((base + vci, packet))
                    remaining -= 1
                    entry[1] = remaining
                    if remaining == 0:
                        del senders[vci]
                        order.remove(vci)
                    ni.rr += 1
                    break
            if not (queue or senders):
                if done is None:
                    done = [rid]
                else:
                    done.append(rid)
        if done is not None:
            busy.difference_update(done)

    # -- stage: RC / VA ------------------------------------------------------

    def _run_rc_va(self, net, c) -> None:
        s = self._s
        st = s.st
        pk = s.pk
        ha = s.ha
        vae = s.vae
        esc = s.esc
        tg = s.tg
        pend = s.pend
        fault_state = net.fault_state
        stats = net.stats
        tables = net.tables
        escape_port_for = tables.escape_port_for
        # Common case: table lookup only.  Any fault state, multicast
        # hook, or adaptive policy routes through the shared compute_route.
        fastpath = (
            fault_state is None
            and net.mc_targets_fn is None
            and not net.policy.adaptive
        )
        port_rows = tables._port  # dense [rid][dst] next-hop table
        try_va = self._try_va
        for rid in net.active:
            pr = pend[rid]
            if not pr:
                continue
            row = None
            # Index walk: _try_va removes the *current* slot from pr when
            # VA completes (pend -> act), so compensate instead of paying
            # a tuple snapshot per router per cycle.
            i = 0
            end = len(pr)
            while i < end:
                slot = pr[i]
                state = st[slot]
                if state == 1:                        # ROUTE
                    if ha[slot] < c:
                        if fastpath:
                            packet = pk[slot]
                            dst = packet.dst
                            if dst == rid:
                                tg[slot] = [(0, -1)]  # EJECT
                            elif esc[slot] or packet.escape:
                                tg[slot] = [
                                    (escape_port_for(rid, dst), -1)
                                ]
                            else:
                                if row is None:
                                    row = port_rows[rid]
                                tg[slot] = [(row[dst], -1)]
                        else:
                            ports = compute_route(net, rid, s.vobj[slot])
                            if not ports:
                                # No live route (runtime fault):
                                # retry next cycle.
                                if stats.in_window(c):
                                    stats.fault_retries += 1
                                i += 1
                                continue
                            tg[slot] = [(p, -1) for p in ports]
                        st[slot] = 2                  # VA
                        vae[slot] = c + 1
                elif state == 2 and c >= vae[slot]:   # VA
                    try_va(net, rid, slot, c)
                    if st[slot] == 3:                 # moved pend -> act
                        end -= 1
                        continue
                i += 1

    def _try_va(self, net, rid, slot, c) -> None:
        """VA for one head: mirror of :func:`repro.noc.kernel.rc_va.try_va`
        on the array state (downstream ``vc_busy`` scans inlined)."""
        s = self._s
        vas = s.vas
        if vas[slot] < 0:
            vas[slot] = c
        packet = s.pk[slot]
        escape = s.esc[slot] or packet.escape
        num_vcs = net.num_vcs
        links = s.links6[rid]
        targets = s.tg[slot]
        complete = True
        for i, (port, out_vc) in enumerate(targets):
            if out_vc >= 0:
                continue
            link = links[port]
            if link.dst_router is None:               # ejection: always free
                targets[i] = (port, 0)
                continue
            vc_busy = link.vc_busy                    # allocate_vc, inlined
            allocated = -1
            if escape:
                for j in range(num_vcs, len(vc_busy)):
                    if not vc_busy[j]:
                        vc_busy[j] = True
                        allocated = j
                        break
            else:
                for j in range(num_vcs):
                    if not vc_busy[j]:
                        vc_busy[j] = True
                        allocated = j
                        break
            if allocated < 0:
                complete = False
            else:
                targets[i] = (port, allocated)
        if complete:
            s.st[slot] = 3                            # ACTIVE
            s.sar[slot] = c + 1
            s.pend[rid].remove(slot)
            insort(s.act[rid], slot)
            return
        # Escape diversion: a stalled unicast head abandons the table
        # route and retries over the deadlock-free XY escape class.
        if (
            not escape
            and not packet.message.is_multicast
            and c - vas[slot] >= net.policy.escape_timeout
            and packet.dst != rid
        ):
            for port, out_vc in targets:              # release_partial_va
                if out_vc >= 0:
                    link = links[port]
                    if link.dst_router is not None:
                        link.vc_busy[out_vc] = False
            packet.escape = True
            packet.route_class = "escape"
            if net.observation is not None and net.stats.in_window(c):
                net.observation.on_route_divert(packet, rid, c, "escape")
            s.tg[slot] = [
                (net.tables.escape_port_for(rid, packet.dst), -1)
            ]
            vas[slot] = c  # restart the timeout clock in the escape class

    # -- stage: SA / ST / LT -------------------------------------------------

    def _run_switch(self, net, c, in_window) -> None:
        s = self._s
        arr = s.arr
        snt = s.snt
        sar = s.sar
        tg = s.tg
        act = s.act
        pend = s.pend
        captmpl6 = s.captmpl6
        links6 = s.links6
        st = s.st
        pk = s.pk
        ha = s.ha
        vae = s.vae
        vas = s.vas
        rcv = s.rcv
        occ = s.occ
        vobj = s.vobj
        vidx = s.vidx
        fcred = s.fcred
        fvb = s.fvb
        fni = s.fni
        dst6 = s.dst6
        lid6 = s.lid6
        lfcnt = s.lfcnt
        lftouched = s.lftouched
        fault_state = net.fault_state
        ops = self._ops
        acc = self._acc
        obs = net.observation
        wheel = self._arrivals
        deliveries = self._deliveries
        wsize = self._wsize
        interfaces = net.interfaces
        ni_busy = net._ni_busy
        grant1 = self._grant1
        for rid in net.active:
            ar = act[rid]
            if ar:
                # Collect eligible heads in slot order — the reference's
                # occupied_vcs scan order (in_ports insertion order), which
                # fixes the *port grant sequence* via dict insertion.  The
                # overwhelmingly common case is a single eligible head:
                # grant it without building the per-port request dict.
                first = -1
                requests = None
                multicast = None
                for slot in ar:
                    a = arr[slot]
                    if not a:                         # flit_eligible
                        continue
                    if snt[slot] == 0:
                        if c < sar[slot]:
                            continue
                    elif c < a[0] + 1:
                        continue
                    targets = tg[slot]
                    if len(targets) > 1:
                        if multicast is None:
                            multicast = [slot]
                        else:
                            multicast.append(slot)
                    elif first < 0 and requests is None:
                        first = slot
                    else:
                        if requests is None:
                            requests = {tg[first][0][0]: [first]}
                            first = -1
                        port = targets[0][0]
                        lst = requests.get(port)
                        if lst is None:
                            requests[port] = [slot]
                        else:
                            lst.append(slot)
                if multicast is not None:
                    cap = s.cap6[rid]
                    cap[:] = captmpl6[rid]
                    for slot in multicast:
                        self._grant_multicast(
                            net, rid, slot, c, cap, fault_state, in_window
                        )
                    if first >= 0:
                        port = tg[first][0][0]
                        cap[port] = grant1(
                            net, rid, port, first, c, cap[port],
                            fault_state, in_window,
                        )
                    elif requests is not None:
                        for port, cands in requests.items():
                            cap[port] = self._grant_port(
                                net, rid, port, cands, c, cap[port],
                                fault_state, in_window,
                            )
                elif first >= 0:
                    # Single eligible head — the dominant case.  The whole
                    # grant + send + release chain is inlined here on the
                    # locals bound above (semantically identical to
                    # _grant1/_send1/_release; the differential suite
                    # holds both paths to the reference digests).
                    slot = first
                    targets = tg[slot]
                    port, out_vc = targets[0]
                    if fault_state is not None and fault_state.out_dead(
                        rid, port
                    ):
                        pass  # link down: flits hold their VCs
                    else:
                        link = links6[rid][port]
                        cap_p = captmpl6[rid][port]
                        a = arr[slot]
                        eject = link.dst_router is None
                        credits = link.credits
                        is_rf = link.is_rf
                        packet = pk[slot]
                        nflits = packet.num_flits
                        # RF links may drain several flits per cycle.
                        while cap_p > 0:
                            if not a:                 # flit_eligible
                                break
                            sent = snt[slot]
                            if sent == 0:
                                if c < sar[slot]:
                                    break
                            elif c < a[0] + 1:
                                break
                            if not eject and credits[out_vc] <= 0:
                                break
                            # ---- send_flit, inlined ----
                            a.popleft()
                            sent += 1
                            snt[slot] = sent
                            is_tail = sent == nflits
                            if in_window:
                                acc[_XBAR] += 1
                                if obs is not None:
                                    obs.on_flit(rid, port, link, packet, c)
                                if eject:
                                    acc[_LOCAL] += 1
                                else:
                                    if is_rf:
                                        acc[_RF] += 1
                                    else:
                                        acc[_MESH] += 1
                                        acc[_MESH_MM] += link.length_mm
                                    lid = lid6[rid][port]
                                    nl = lfcnt[lid]
                                    if not nl:
                                        lftouched.append(lid)
                                    lfcnt[lid] = nl + 1
                            if eject:
                                if is_tail:
                                    deliveries[(c + 2) % wsize].append(
                                        packet
                                    )
                            else:
                                credits[out_vc] -= 1
                                wheel[
                                    (c + 1 + link.latency_cycles) % wsize
                                ].append((dst6[rid][port] + out_vc, packet))
                                ops.append(link.dst_router + 1)
                                if sent == 1:         # head flit
                                    packet.hops += 1
                                    if is_rf:
                                        packet.rf_hops += 1
                            # Credit (and on tail the VC) back upstream.
                            fc = fcred[slot]
                            if fc is not None:
                                vci = vidx[slot]
                                fc[vci] += 1
                                if is_tail:
                                    fvb[slot][vci] = False
                                if fni[slot] and interfaces[rid].busy:
                                    ni_busy.add(rid)
                            if is_tail:               # ---- release ----
                                st[slot] = 0
                                pk[slot] = None
                                vobj[slot].packet = None
                                a.clear()
                                rcv[slot] = 0
                                snt[slot] = 0
                                ha[slot] = -1
                                vae[slot] = -1
                                sar[slot] = -1
                                vas[slot] = -1
                                tg[slot] = []
                                occ[slot].discard(vidx[slot])
                                ar.remove(slot)
                            cap_p -= 1
                            link.rr += 1
                            if not is_rf:
                                break
                elif requests is not None:
                    tmpl = captmpl6[rid]
                    for port, cands in requests.items():
                        self._grant_port(
                            net, rid, port, cands, c, tmpl[port],
                            fault_state, in_window,
                        )
            if not ar and not pend[rid]:
                # No occupied VC left (or none yet: the router's first
                # flits may still be in flight) — drop from the active
                # set, exactly as the reference's has-work check does.
                ops.append(-1 - rid)
        replay_active_ops(net.active, ops)

    def _grant1(self, net, rid, port, slot, c, cap_p,
                fault_state, in_window) -> int:
        """Switch allocation for a port with a single candidate head."""
        if fault_state is not None and fault_state.out_dead(rid, port):
            return cap_p  # link is down: flits hold VCs until the repair
        s = self._s
        link = s.links6[rid][port]
        # start = link.rr % 1 == 0: the lone candidate is served first.
        out_vc = s.tg[slot][0][1]
        a = s.arr[slot]
        eject = link.dst_router is None
        credits = link.credits
        is_rf = link.is_rf
        snt = s.snt
        # RF links may drain several flits of the same packet per cycle.
        while cap_p > 0:
            if not a:                                 # flit_eligible
                break
            if snt[slot] == 0:
                if c < s.sar[slot]:
                    break
            elif c < a[0] + 1:
                break
            if not eject and credits[out_vc] <= 0:    # has_credit
                break
            self._send1(net, rid, slot, c, port, link, out_vc,
                        eject, is_rf, in_window)
            cap_p -= 1
            link.rr += 1
            if not is_rf:
                break
        return cap_p

    def _grant_port(self, net, rid, port, candidates, c, cap_p,
                    fault_state, in_window) -> int:
        if fault_state is not None and fault_state.out_dead(rid, port):
            return cap_p  # link is down: flits hold VCs until the repair
        s = self._s
        link = s.links6[rid][port]
        n = len(candidates)
        if n > 1:
            # Arbitration order is numeric (in-port, VC index) — NOT slot
            # order, because in_ports insertion order need not be numeric.
            candidates.sort(key=s.nkey.__getitem__)
        start = link.rr % n
        eject = link.dst_router is None
        credits = link.credits
        is_rf = link.is_rf
        arr = s.arr
        snt = s.snt
        sar = s.sar
        tg = s.tg
        pk = s.pk
        st = s.st
        ha = s.ha
        vae = s.vae
        vas = s.vas
        rcv = s.rcv
        occ = s.occ
        vobj = s.vobj
        vidx = s.vidx
        fcred = s.fcred
        acc = self._acc
        obs = net.observation
        ops = self._ops
        wheel = self._arrivals
        wsize = self._wsize
        dstbase = s.dst6[rid][port]
        lid = s.lid6[rid][port]
        lfcnt = s.lfcnt
        ar = s.act[rid]
        for offset in range(n):
            if cap_p <= 0:
                break
            slot = candidates[(start + offset) % n]
            out_vc = tg[slot][0][1]
            a = arr[slot]
            packet = pk[slot]
            # RF links may drain several flits of the same packet per cycle.
            while cap_p > 0:
                if not a:                             # flit_eligible
                    break
                sent = snt[slot]
                if sent == 0:
                    if c < sar[slot]:
                        break
                elif c < a[0] + 1:
                    break
                if not eject and credits[out_vc] <= 0:    # has_credit
                    break
                # ---- send_flit, inlined (mirror of the _run_switch
                # single-candidate path) ----
                a.popleft()
                sent += 1
                snt[slot] = sent
                is_tail = sent == packet.num_flits
                if in_window:
                    acc[_XBAR] += 1
                    if obs is not None:
                        obs.on_flit(rid, port, link, packet, c)
                    if eject:
                        acc[_LOCAL] += 1
                    else:
                        if is_rf:
                            acc[_RF] += 1
                        else:
                            acc[_MESH] += 1
                            acc[_MESH_MM] += link.length_mm
                        nl = lfcnt[lid]
                        if not nl:
                            s.lftouched.append(lid)
                        lfcnt[lid] = nl + 1
                if eject:
                    if is_tail:
                        self._deliveries[(c + 2) % wsize].append(packet)
                else:
                    credits[out_vc] -= 1
                    wheel[(c + 1 + link.latency_cycles) % wsize].append(
                        (dstbase + out_vc, packet)
                    )
                    ops.append(link.dst_router + 1)
                    if sent == 1:                     # head flit
                        packet.hops += 1
                        if is_rf:
                            packet.rf_hops += 1
                fc = fcred[slot]
                if fc is not None:
                    vci = vidx[slot]
                    fc[vci] += 1
                    if is_tail:
                        s.fvb[slot][vci] = False
                    if s.fni[slot] and net.interfaces[rid].busy:
                        net._ni_busy.add(rid)
                if is_tail:                           # ---- release ----
                    st[slot] = 0
                    pk[slot] = None
                    vobj[slot].packet = None
                    a.clear()
                    rcv[slot] = 0
                    snt[slot] = 0
                    ha[slot] = -1
                    vae[slot] = -1
                    sar[slot] = -1
                    vas[slot] = -1
                    tg[slot] = []
                    occ[slot].discard(vidx[slot])
                    ar.remove(slot)
                cap_p -= 1
                link.rr += 1
                if not is_rf:
                    break
        return cap_p

    def _grant_multicast(self, net, rid, slot, c, cap,
                         fault_state, in_window) -> None:
        s = self._s
        links = s.links6[rid]
        tg = s.tg
        for port, out_vc in tg[slot]:
            link = links[port]
            if cap[port] <= 0 or not (
                link.dst_router is None or link.credits[out_vc] > 0
            ):
                return
            if fault_state is not None and fault_state.out_dead(rid, port):
                return
        # Bind the target list before the send: a tail send releases the
        # slot, rebinding tg[slot] to [] — and, exactly like the
        # reference, the capacity decrement below then sees the empty
        # list (tail flits do not consume switch capacity; a quirk all
        # kernels must share).
        targets = tg[slot]
        self._sendm(net, rid, slot, c, links, targets, in_window)
        for port, _ in tg[slot]:
            cap[port] -= 1

    def _send1(self, net, rid, slot, c, port, link, out_vc,
               eject, is_rf, in_window) -> None:
        """Single-target send_flit (the unicast common case)."""
        s = self._s
        packet = s.pk[slot]
        s.arr[slot].popleft()
        sent = s.snt[slot] + 1
        s.snt[slot] = sent
        is_tail = sent == packet.num_flits
        if in_window:
            acc = self._acc
            acc[_XBAR] += 1
            obs = net.observation
            if obs is not None:
                obs.on_flit(rid, port, link, packet, c)
            if eject:
                acc[_LOCAL] += 1
            else:
                if is_rf:
                    acc[_RF] += 1
                else:
                    acc[_MESH] += 1
                    acc[_MESH_MM] += link.length_mm
                lid = s.lid6[rid][port]
                n = s.lfcnt[lid]
                if not n:
                    s.lftouched.append(lid)
                s.lfcnt[lid] = n + 1
        if eject:
            if is_tail:
                self._deliveries[(c + 2) % self._wsize].append(packet)
        else:
            link.credits[out_vc] -= 1
            self._arrivals[(c + 1 + link.latency_cycles) % self._wsize].append(
                (s.dst6[rid][port] + out_vc, packet)
            )
            self._ops.append(link.dst_router + 1)
            if sent == 1:                             # head flit
                packet.hops += 1
                if is_rf:
                    packet.rf_hops += 1
        # Return a credit (and, on tail, the VC itself) to whoever feeds us.
        vci = s.vidx[slot]
        fcred = s.fcred[slot]
        if fcred is not None:
            fcred[vci] += 1
            if is_tail:
                s.fvb[slot][vci] = False
            if s.fni[slot] and net.interfaces[rid].busy:
                net._ni_busy.add(rid)
        if is_tail:
            self._release(slot, rid)

    def _sendm(self, net, rid, slot, c, links, targets, in_window) -> None:
        """Multi-target send_flit (multicast forks)."""
        s = self._s
        packet = s.pk[slot]
        s.arr[slot].popleft()
        sent = s.snt[slot] + 1
        s.snt[slot] = sent
        is_head = sent == 1
        is_tail = sent == packet.num_flits
        acc = self._acc
        obs = net.observation if in_window else None
        size = self._wsize
        ops = self._ops
        dst = s.dst6[rid]
        lid6 = s.lid6[rid]
        lfcnt = s.lfcnt
        lftouched = s.lftouched
        for port, out_vc in targets:
            link = links[port]
            if in_window:
                acc[_XBAR] += 1
                if obs is not None:
                    obs.on_flit(rid, port, link, packet, c)
            if link.dst_router is None:
                if in_window:
                    acc[_LOCAL] += 1
                if is_tail:
                    self._deliveries[(c + 2) % size].append(packet)
                continue
            link.credits[out_vc] -= 1
            self._arrivals[(c + 1 + link.latency_cycles) % size].append(
                (dst[port] + out_vc, packet)
            )
            ops.append(link.dst_router + 1)
            if in_window:
                if link.is_rf:
                    acc[_RF] += 1
                else:
                    acc[_MESH] += 1
                    acc[_MESH_MM] += link.length_mm
                lid = lid6[port]
                n = lfcnt[lid]
                if not n:
                    lftouched.append(lid)
                lfcnt[lid] = n + 1
            if is_head:
                packet.hops += 1
                if link.is_rf:
                    packet.rf_hops += 1
        vci = s.vidx[slot]
        fcred = s.fcred[slot]
        if fcred is not None:
            fcred[vci] += 1
            if is_tail:
                s.fvb[slot][vci] = False
            if s.fni[slot] and net.interfaces[rid].busy:
                net._ni_busy.add(rid)
        if is_tail:
            self._release(slot, rid)

    def _release(self, slot, rid) -> None:
        """Tail forwarded: return the slot to IDLE (VC release)."""
        s = self._s
        s.st[slot] = 0
        s.pk[slot] = None
        s.vobj[slot].packet = None
        s.arr[slot].clear()
        s.rcv[slot] = 0
        s.snt[slot] = 0
        s.ha[slot] = -1
        s.vae[slot] = -1
        s.sar[slot] = -1
        s.vas[slot] = -1
        s.tg[slot] = []
        s.occ[slot].discard(s.vidx[slot])
        s.act[rid].remove(slot)


register(
    "batch", BatchKernel,
    capabilities={"faults", "multicast", "stage_profile"},
)
