package noc

import "testing"

// checkAggregates recomputes every skip aggregate of the stepping loop
// from the input and queue contents and fails on the first mismatch:
// per router occ, needRoute, routedTo and the outs mask, plus the
// in-flight flit count and each node's InjectQueueLen. It also checks
// that every granted output's owner is routed to it. The aggregates are
// incremental, so a missed update shows up here on the cycle it happens,
// long before it would change a delivery.
func checkAggregates(t testing.TB, nw *Network) {
	t.Helper()
	fail := func(r int, what string, got, want any) {
		t.Helper()
		t.Fatalf("cycle %d: router %d: %s %v, recomputed %v", nw.Cycle(), r, what, got, want)
	}
	flits := 0
	for r := range nw.routers {
		rt := &nw.routers[r]
		var routedTo [numPorts]int8
		var needRoute int8
		var outs uint8
		occ := 0
		for p := range rt.in {
			in := &rt.in[p]
			n := in.size()
			occ += n
			switch {
			case in.route == routeNone && n > 0:
				needRoute++
			case in.route >= 0:
				routedTo[in.route]++
				outs |= 1 << in.route
			}
		}
		for out, owner := range rt.outOwner {
			if owner >= 0 && rt.in[owner].route != out {
				fail(r, "output owner's route", rt.in[owner].route, out)
			}
		}
		switch {
		case rt.occ != occ:
			fail(r, "occ", rt.occ, occ)
		case rt.needRoute != needRoute:
			fail(r, "needRoute", rt.needRoute, needRoute)
		case rt.routedTo != routedTo:
			fail(r, "routedTo", rt.routedTo, routedTo)
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
