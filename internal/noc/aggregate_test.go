package noc

import "testing"

// checkAggregates recomputes every skip aggregate of the stepping loop
// from the lane and queue contents and fails on the first mismatch:
// per router occ, occIn, needRoute, routedTo, owned and the outs mask,
// plus the in-flight flit count and each node's InjectQueueLen. The
// aggregates are incremental, so a missed update shows up here on the
// cycle it happens, long before it would change a delivery.
func checkAggregates(t testing.TB, nw *Network) {
	t.Helper()
	fail := func(r int, what string, got, want any) {
		t.Helper()
		t.Fatalf("cycle %d: router %d: %s %v, recomputed %v", nw.Cycle(), r, what, got, want)
	}
	flits := 0
	for r := range nw.routers {
		rt := &nw.routers[r]
		var occIn [numPorts]int16
		var routedTo, owned [numPorts]int8
		var needRoute int8
		var outs uint8
		occ := 0
		for p := 0; p < numPorts; p++ {
			for k := range rt.in[p].vcs {
				lane := &rt.in[p].vcs[k]
				n := lane.size()
				occIn[p] += int16(n)
				occ += n
				switch {
				case lane.route == routeNone && n > 0:
					needRoute++
				case lane.route >= 0:
					routedTo[lane.route]++
					outs |= 1 << lane.route
				}
			}
		}
		for out := 0; out < numPorts; out++ {
			for k := 0; k < nw.vcsN; k++ {
				owner := int(rt.outOwner[out][k])
				if owner < 0 {
					continue
				}
				owned[out]++
				if got := rt.in[owner].vcs[k].route; got != out {
					fail(r, "output VC owner's route", got, out)
				}
			}
		}
		switch {
		case rt.occ != occ:
			fail(r, "occ", rt.occ, occ)
		case rt.occIn != occIn:
			fail(r, "occIn", rt.occIn, occIn)
		case rt.needRoute != needRoute:
			fail(r, "needRoute", rt.needRoute, needRoute)
		case rt.routedTo != routedTo:
			fail(r, "routedTo", rt.routedTo, routedTo)
		case rt.owned != owned:
			fail(r, "owned", rt.owned, owned)
		case rt.outs != outs:
			fail(r, "outs", rt.outs, outs)
		}
		flits += occ
	}
	for n := range nw.inject {
		want := 0
		for _, p := range nw.inject[n].pkts.Items() {
			want += int(p.last-p.next.seq) + 1
		}
		if got := nw.InjectQueueLen(n); got != want {
			t.Fatalf("cycle %d: node %d: InjectQueueLen %d, recomputed %d", nw.Cycle(), n, got, want)
		}
		flits += want
	}
	if nw.flits != flits {
		t.Fatalf("cycle %d: in-flight flit count %d, recomputed %d", nw.Cycle(), nw.flits, flits)
	}
}

// stepChecked advances the network one cycle and checks its aggregates.
func stepChecked(t testing.TB, nw *Network) {
	t.Helper()
	nw.Step()
	checkAggregates(t, nw)
}

// drainChecked is RunUntilIdle with the aggregates checked after every
// cycle; it reports whether the network drained within maxCycles.
func drainChecked(t testing.TB, nw *Network, maxCycles uint64) bool {
	t.Helper()
	for start := nw.Cycle(); !nw.Idle(); {
		if nw.Cycle()-start >= maxCycles {
			return false
		}
		stepChecked(t, nw)
	}
	return true
}
