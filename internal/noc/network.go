package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/faults"
	"repro/internal/fifo"
	"repro/internal/obs"
)

// Config describes the mesh.
type Config struct {
	Width, Height int // mesh dimensions (paper: 4x4)
	BufferDepth   int // input buffer depth in flits per port
	FlitBits      int // link width (paper: 64)
	MaxPacketFlit int // largest packet the NI will segment into (0 = 32)
	// Faults is the injected fault environment (zero value: fault-free).
	// Transient link faults are detected by the per-packet checksum at
	// the destination NI and repaired by NACK + source retransmission;
	// dead links are avoided at route time.
	Faults faults.Model
	// MaxRetries bounds end-to-end retransmissions per packet (0 = 8).
	// A packet still corrupted after the budget is counted in
	// Stats.LostPackets and dropped.
	MaxRetries int
}

// DefaultConfig returns the paper's 4x4 mesh with 64-bit links.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 4, BufferDepth: 4, FlitBits: 64, MaxPacketFlit: 32}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Width < 1 || c.Height < 1:
		return fmt.Errorf("noc: bad mesh %dx%d", c.Width, c.Height)
	case c.Width*c.Height < 2:
		return fmt.Errorf("noc: mesh needs at least 2 nodes")
	case c.BufferDepth < 1:
		return fmt.Errorf("noc: buffer depth %d < 1", c.BufferDepth)
	case c.FlitBits <= 0:
		return fmt.Errorf("noc: flit width %d", c.FlitBits)
	case c.MaxPacketFlit < 0:
		return fmt.Errorf("noc: negative max packet size")
	case c.MaxRetries < 0:
		return fmt.Errorf("noc: negative retry budget %d", c.MaxRetries)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	nodes := c.Width * c.Height
	for _, l := range c.Faults.DeadLinks {
		if l.From < 0 || l.From >= nodes || l.To < 0 || l.To >= nodes {
			return fmt.Errorf("noc: dead link %s outside %dx%d mesh", l, c.Width, c.Height)
		}
		fx, fy := l.From%c.Width, l.From/c.Width
		tx, ty := l.To%c.Width, l.To/c.Width
		if d := abs(fx-tx) + abs(fy-ty); d != 1 {
			return fmt.Errorf("noc: dead link %s does not connect mesh neighbors", l)
		}
	}
	return nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Route states of an input port, besides a concrete output port >= 0.
const (
	routeNone = -1 // no packet routed on this input
	routeDrop = -2 // input drains the flits of a killed (unroutable) packet
)

// flitFIFO is a router input's reusable flit queue: pops advance a head
// index instead of re-slicing, so the backing array is reused across
// push/pop churn (one steady-state allocation per queue instead of one
// per wrap). Pushes compact the live region to the front when the tail
// hits the array's capacity, which is cheap because the live region is
// bounded by BufferDepth. Flits move in and out by pointer: push copies
// the 32-byte flit once into its slot and returns the slot, so a hop
// updates the stored flit in place, and the pipeline reads the head
// through front before it pops.
type flitFIFO struct {
	buf  []flit
	head int
}

// size returns the number of queued flits.
func (q *flitFIFO) size() int { return len(q.buf) - q.head }

// front returns the head flit; the queue must be non-empty.
func (q *flitFIFO) front() *flit { return &q.buf[q.head] }

// push appends a flit and returns its slot, compacting first when the
// tail would grow the backing array even though dead space exists
// before the head.
func (q *flitFIFO) push(f *flit) *flit {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, *f)
	return &q.buf[len(q.buf)-1]
}

// pop removes the head flit; the queue must be non-empty.
func (q *flitFIFO) pop() {
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// reset empties the queue, keeping the backing array.
func (q *flitFIFO) reset() {
	q.buf = q.buf[:0]
	q.head = 0
}

// injectQueue is a source NI's injection queue, one entry per packet.
// Each entry holds the packet's next flit, fully formed; injectNode
// pushes it into the local port and advances it in place (seq, then
// ftype), so a flit is materialized only as it enters the router and
// the queue's memory is O(packets) however long the messages are. flits
// counts the flits still waiting, for InjectQueueLen.
type injectQueue struct {
	pkts  fifo.Queue[injPacket]
	flits int
}

// injPacket is one queued packet: next is the flit the NI injects next
// and last the seq of the packet's final flit.
type injPacket struct {
	next flit
	last int32
}

// push appends a packet.
func (q *injectQueue) push(p injPacket) {
	q.pkts.Push(p)
	q.flits += int(p.last) + 1
}

// reset empties the queue, keeping the backing array.
func (q *injectQueue) reset() {
	q.pkts.Reset()
	q.flits = 0
}

// inputPort is one router input: a single flit lane (plain wormhole,
// no virtual channels) and the route of the packet at its head.
type inputPort struct {
	flitFIFO
	route int // output port allocated to the packet at head, or routeNone/routeDrop
}

// router is one five-port wormhole router. A packet acquires the output
// port its route names and holds it until its tail passes; a free output
// is granted round-robin among the inputs routed to it, and its owner
// sends one flit per cycle while the downstream buffer has credit.
type router struct {
	id       int
	occ      int // flits buffered across all of this router's inputs
	in       [numPorts]inputPort
	outOwner [numPorts]int8 // output port -> owning input port (-1 = free)
	rrIn     [numPorts]int8 // round-robin pointer over inputs per output
	// Exact aggregates so the pipeline phases can skip outputs that
	// provably cannot act, without changing any arbitration decision.
	// routedTo counts inputs whose computed route targets each output
	// (a grant requires one). A grant goes to an input routed to that
	// output and is released when its tail passes, so outs (bit out set
	// iff routedTo[out] > 0) is exactly the set of outputs phase 2 must
	// visit.
	routedTo [numPorts]int8
	outs     uint8
	// needRoute counts inputs holding an unrouted fresh head
	// (route == routeNone with flits buffered); phase 1 is a no-op
	// whenever it is zero.
	needRoute int8
	// Precomputed neighbor geometry: the router on the far side of each
	// output port (-1 at mesh edges and for the local port) and the
	// input port the link feeds there.
	nbr     [numPorts]int32
	nbrPort [numPorts]int8
}

// Stats aggregates network activity counters used by the energy model,
// plus the fault/recovery counters of the retransmission protocol.
type Stats struct {
	Cycles         uint64
	PacketsIn      uint64 // packets accepted into injection queues
	PacketsOut     uint64 // packets fully delivered
	FlitsInjected  uint64 // includes retransmitted flits
	FlitsEjected   uint64
	RouterTraverse uint64 // flits leaving any router output (switch traversals)
	LinkTraverse   uint64 // flits crossing an inter-router link
	LatencySum     uint64 // sum of packet latencies

	// Fault-injection counters (all zero on a fault-free run).
	CorruptFlits         uint64 // flit corruption events on links
	RetransmittedPackets uint64 // packets NACKed and re-sent end to end
	LostPackets          uint64 // packets dropped after the retry budget
	UnroutablePackets    uint64 // packets killed: dead links cut off every route
	DeadLinkAvoids       uint64 // route decisions diverted around a dead link
}

// Dropped returns the packets permanently lost to faults: retry-budget
// exhaustion plus unroutable kills.
func (s Stats) Dropped() uint64 { return s.LostPackets + s.UnroutablePackets }

// Network is the mesh simulator. Create with New, drive with Step.
type Network struct {
	cfg       Config
	routers   []router
	inject    []injectQueue     // per-node injection queues, one entry per packet
	flits     int               // total flits anywhere (inject queues + router inputs)
	pending   map[uint64]Packet // packet descriptors by ID for delivery reporting
	sink      func(Delivery)
	nextID    uint64
	cycle     uint64
	stats     Stats
	perRouter []uint64 // flit traversals per router (utilization heatmap)
	// staged arrivals for the two-phase cycle update
	arrivals []int // per (router, port): flits arriving this cycle
	touched  []int // arrival indices written this cycle, to clear in O(touched)
	// dirty-node tracking so Reset clears O(nodes that saw traffic)
	// instead of O(mesh): every router/queue mutation happens at a node
	// that received a flit over a link or a packet on its injection
	// queue, so those push sites are the complete set of dirtying points.
	dirty   []int32 // node ids with router or queue state to clear on Reset
	dirtied []bool  // per-node membership flag for dirty
	// fault-injection state
	faultsOn   bool                 // any transient fault model active
	dead       map[faults.Link]bool // stuck-at dead links (nil = none)
	deadRoute  [][]int8             // [dst][node] -> port on a shortest live path
	corrupted  map[uint64]bool      // packets with a corrupt flit ejected so far
	maxRetries int                  // resolved end-to-end retry budget
	hopLimit   int                  // packets exceeding this hop count are killed
	// observability hooks; both nil (free) unless installed. Emissions
	// are guarded with a pointer comparison at every call site so the
	// disabled path costs one branch and zero allocations.
	trace   *obs.Buffer    // packet lifecycle events
	latHist *obs.Histogram // delivered-packet latency distribution
}

// New creates a network from the configuration.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxPacketFlit == 0 {
		cfg.MaxPacketFlit = 32
	}
	n := cfg.Width * cfg.Height
	nw := &Network{
		cfg:        cfg,
		routers:    make([]router, n),
		inject:     make([]injectQueue, n),
		pending:    make(map[uint64]Packet),
		arrivals:   make([]int, n*numPorts),
		perRouter:  make([]uint64, n),
		dirtied:    make([]bool, n),
		faultsOn:   cfg.Faults.LinkFlitRate > 0,
		dead:       cfg.Faults.DeadSet(),
		maxRetries: cfg.MaxRetries,
	}
	if nw.maxRetries == 0 {
		nw.maxRetries = 8
	}
	// Defensive backstop: any live shortest path visits at most every
	// node once, so a packet exceeding this hop count can only mean a
	// routing bug; kill it deterministically instead of hanging.
	nw.hopLimit = 2*n + 16
	for i := range nw.routers {
		rt := &nw.routers[i]
		rt.id = i
		for p := 0; p < numPorts; p++ {
			rt.in[p].route = routeNone
			rt.outOwner[p] = -1
			rt.nbr[p] = -1
		}
		// Precompute the neighbor table (pure mesh geometry).
		x, y := nw.coord(i)
		if y > 0 {
			rt.nbr[PortNorth], rt.nbrPort[PortNorth] = int32(i-cfg.Width), PortSouth
		}
		if y < cfg.Height-1 {
			rt.nbr[PortSouth], rt.nbrPort[PortSouth] = int32(i+cfg.Width), PortNorth
		}
		if x < cfg.Width-1 {
			rt.nbr[PortEast], rt.nbrPort[PortEast] = int32(i+1), PortWest
		}
		if x > 0 {
			rt.nbr[PortWest], rt.nbrPort[PortWest] = int32(i-1), PortEast
		}
	}
	// After the neighbor tables: the BFS walks the mesh through them.
	if nw.dead != nil {
		nw.buildDeadRoutes()
	}
	return nw, nil
}

// Nodes returns the node count.
func (nw *Network) Nodes() int { return len(nw.routers) }

// Cycle returns the current simulation cycle.
func (nw *Network) Cycle() uint64 { return nw.cycle }

// Stats returns a copy of the activity counters.
func (nw *Network) Stats() Stats { return nw.stats }

// SetSink installs the delivery callback, invoked when a packet's tail
// flit is ejected at its destination.
func (nw *Network) SetSink(fn func(Delivery)) { nw.sink = fn }

// SetTrace installs a trace buffer recording packet lifecycle events
// (inject, delivery spans, retransmissions, drops). Emission order is a
// pure function of simulated time. Cleared by Reset; nil disables
// tracing.
func (nw *Network) SetTrace(b *obs.Buffer) { nw.trace = b }

// SetLatencyHistogram installs a histogram fed with every delivered
// packet's latency in cycles. Cleared by Reset; nil disables.
func (nw *Network) SetLatencyHistogram(h *obs.Histogram) { nw.latHist = h }

// PerRouterTraversals returns a copy of the per-router flit traversal
// counters — the utilization heatmap of the mesh.
func (nw *Network) PerRouterTraversals() []uint64 {
	return append([]uint64(nil), nw.perRouter...)
}

// markDirty records that node id's router or injection queue may hold
// state Reset must clear. Called where packets enter an injection queue
// and where flits cross a link: every other mutation (route fields,
// round-robin pointers, output grants, traversal counters) happens at
// a router that holds a flit, and a flit reaches a router only over a
// link or from that node's own injection queue.
func (nw *Network) markDirty(id int) {
	if !nw.dirtied[id] {
		nw.dirtied[id] = true
		nw.dirty = append(nw.dirty, int32(id))
	}
}

// Reset returns the network to its post-New state while keeping every
// allocated buffer (router inputs, injection queues, arrival staging),
// so a pooled Network can simulate many independent workloads without
// re-allocating its geometry. The fault configuration and precomputed
// dead-link routes are preserved (they are pure functions of the
// Config); the clock, stats, queues, and sink are cleared. Cost is
// O(nodes that saw traffic), not O(mesh): only dirty nodes are cleared.
func (nw *Network) Reset() {
	for _, id := range nw.dirty {
		i := int(id)
		nw.dirtied[i] = false
		nw.inject[i].reset()
		nw.perRouter[i] = 0
		rt := &nw.routers[i]
		rt.occ = 0
		rt.routedTo = [numPorts]int8{}
		rt.needRoute = 0
		rt.outs = 0
		rt.rrIn = [numPorts]int8{}
		for p := 0; p < numPorts; p++ {
			rt.in[p].reset()
			rt.in[p].route = routeNone
			rt.outOwner[p] = -1
		}
	}
	nw.dirty = nw.dirty[:0]
	clear(nw.pending)
	clear(nw.corrupted)
	for _, ai := range nw.touched {
		nw.arrivals[ai] = 0
	}
	nw.touched = nw.touched[:0]
	nw.sink = nil
	nw.trace = nil
	nw.latHist = nil
	nw.nextID = 0
	nw.cycle = 0
	nw.stats = Stats{}
	nw.flits = 0
}

// AdvanceIdle advances the clock to target in one jump, provided the
// network is completely idle (no flits queued or in flight anywhere).
// An idle Step only increments the cycle counter — no router, queue,
// stats, or fault state can change, and the link-fault process is a
// pure function of (packet, flit, attempt, router), consuming nothing
// per cycle — so the jump is exactly equivalent to target-Cycle()
// consecutive Step calls. It reports whether it advanced; a busy
// network or a target at or behind the current cycle is a no-op.
func (nw *Network) AdvanceIdle(target uint64) bool {
	if nw.flits != 0 || target <= nw.cycle {
		return false
	}
	nw.cycle = target
	nw.stats.Cycles = target
	return true
}

// coord maps a node id to mesh coordinates.
func (nw *Network) coord(id int) (x, y int) { return id % nw.cfg.Width, id / nw.cfg.Width }

// NodeAt maps mesh coordinates to a node id.
func (nw *Network) NodeAt(x, y int) (int, error) {
	if x < 0 || x >= nw.cfg.Width || y < 0 || y >= nw.cfg.Height {
		return 0, fmt.Errorf("noc: coordinates (%d,%d) outside %dx%d mesh", x, y, nw.cfg.Width, nw.cfg.Height)
	}
	return y*nw.cfg.Width + x, nil
}

// buildDeadRoutes precomputes, for every destination, a shortest-path
// next-hop table over the live-link graph (BFS from the destination over
// reversed live links). Following the table the distance to the
// destination strictly decreases every hop, so dead-link detours can
// neither oscillate nor livelock; a node from which the destination is
// unreachable maps to routeDrop and its packets are killed at the source
// router, where the whole worm still funnels through one input. Detours
// may violate XY's turn restrictions — strict deadlock freedom is traded
// for connectivity under faults, which light dead-link scenarios and a
// bounded-cycle simulation can afford.
func (nw *Network) buildDeadRoutes() {
	n := len(nw.routers)
	nw.deadRoute = make([][]int8, n)
	dist := make([]int, n)
	for dst := 0; dst < n; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue := []int{dst}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for p := PortNorth; p <= PortWest; p++ {
				u, _, ok := nw.neighbor(cur, p)
				if !ok || nw.dead[faults.Link{From: u, To: cur}] || dist[u] >= 0 {
					continue
				}
				dist[u] = dist[cur] + 1
				queue = append(queue, u)
			}
		}
		ports := make([]int8, n)
		for id := 0; id < n; id++ {
			switch {
			case id == dst:
				ports[id] = PortLocal
				continue
			case dist[id] < 0:
				ports[id] = routeDrop
				continue
			}
			// Among live distance-reducing ports, prefer XY's choice
			// so fault-free flows keep their paths.
			pref := nw.routeXY(id, dst)
			best := int8(routeDrop)
			for p := PortNorth; p <= PortWest; p++ {
				nid, _, ok := nw.neighbor(id, p)
				if !ok || nw.dead[faults.Link{From: id, To: nid}] || dist[nid] != dist[id]-1 {
					continue
				}
				if p == pref {
					best = int8(p)
					break
				}
				if best == routeDrop {
					best = int8(p)
				}
			}
			ports[id] = best
		}
		nw.deadRoute[dst] = ports
	}
}

// route returns the output port for a packet toward dst at router id:
// XY's choice on a healthy mesh, or the precomputed shortest live path
// when stuck-at dead links exist.
func (nw *Network) route(id, dst int) int {
	if nw.dead == nil {
		return nw.routeXY(id, dst)
	}
	p := int(nw.deadRoute[dst][id])
	if p != routeDrop && p != nw.routeXY(id, dst) {
		nw.stats.DeadLinkAvoids++
	}
	return p
}

// routeXY is dimension-ordered XY routing, the paper's: X first, then Y.
// It is deadlock-free on a mesh and ignores link health.
func (nw *Network) routeXY(id, dst int) int {
	cx, cy := nw.coord(id)
	dx, dy := nw.coord(dst)
	switch {
	case dx > cx:
		return PortEast
	case dx < cx:
		return PortWest
	case dy > cy:
		return PortSouth
	case dy < cy:
		return PortNorth
	default:
		return PortLocal
	}
}

// neighbor returns the router on the other side of output port p of
// router id, and the input port it arrives on; ok=false at mesh edges
// and for the local port. O(1) via the table precomputed in New.
func (nw *Network) neighbor(id, p int) (nid, nport int, ok bool) {
	rt := &nw.routers[id]
	n := rt.nbr[p]
	if n < 0 {
		return 0, 0, false
	}
	return int(n), int(rt.nbrPort[p]), true
}

// Inject queues a packet at its source node's network interface. The NI
// segments it into flits as they enter the router's local input port,
// one per cycle as buffer space allows.
func (nw *Network) Inject(p Packet) error {
	if p.Src < 0 || p.Src >= len(nw.routers) || p.Dst < 0 || p.Dst >= len(nw.routers) {
		return fmt.Errorf("noc: packet endpoints %d->%d outside mesh", p.Src, p.Dst)
	}
	if p.Src == p.Dst {
		return fmt.Errorf("noc: self-addressed packet at node %d", p.Src)
	}
	if p.Flits < 1 {
		return fmt.Errorf("noc: packet with %d flits", p.Flits)
	}
	if nw.cfg.MaxPacketFlit > 0 && p.Flits > nw.cfg.MaxPacketFlit {
		return fmt.Errorf("noc: packet of %d flits exceeds max %d (segment at the NI)", p.Flits, nw.cfg.MaxPacketFlit)
	}
	p.ID = nw.nextID
	nw.nextID++
	nw.pending[p.ID] = p
	nw.enqueueFlits(p, nw.cycle, 0)
	nw.stats.PacketsIn++
	if nw.trace != nil {
		nw.trace.Instant("inject", "noc", p.Src, nw.cycle,
			obs.KV{K: "pkt", V: p.ID}, obs.KV{K: "dst", V: uint64(p.Dst)}, obs.KV{K: "flits", V: uint64(p.Flits)})
	}
	return nil
}

// enqueueFlits queues packet p on its source injection queue. enqueued
// is the original injection cycle (preserved across retransmissions so
// latency accounts for recovery time) and attempt the end-to-end
// retransmission attempt number. The head flit is formed here; the rest
// are derived from it as the packet is injected.
func (nw *Network) enqueueFlits(p Packet, enqueued uint64, attempt uint8) {
	head := flit{ftype: HeadFlit, packetID: p.ID, dst: int32(p.Dst), enqueued: enqueued, attempt: attempt}
	if p.Flits == 1 {
		head.ftype = HeadTailFlit
	}
	nw.inject[p.Src].push(injPacket{next: head, last: int32(p.Flits - 1)})
	nw.flits += p.Flits
	nw.markDirty(p.Src)
}

// SendMessage segments an arbitrarily large message of the given flit
// count into MaxPacketFlit-sized packets sharing the same Tag, returning
// the number of packets injected.
func (nw *Network) SendMessage(src, dst, flits int, tag uint64) (int, error) {
	if flits < 1 {
		return 0, fmt.Errorf("noc: message with %d flits", flits)
	}
	maxf := nw.cfg.MaxPacketFlit
	if maxf == 0 {
		maxf = 32
	}
	packets := 0
	for flits > 0 {
		sz := flits
		if sz > maxf {
			sz = maxf
		}
		if err := nw.Inject(Packet{Src: src, Dst: dst, Flits: sz, Tag: tag}); err != nil {
			return packets, err
		}
		packets++
		flits -= sz
	}
	return packets, nil
}

// InjectQueueLen returns the number of flits waiting in a node's
// injection queue (for backpressure-aware clients).
func (nw *Network) InjectQueueLen(node int) int { return nw.inject[node].flits }

// Idle reports whether no flits remain anywhere in the network. O(1):
// the network maintains a global in-flight flit count, incremented by a
// packet's length when it joins an injection queue and decremented on
// ejection and drop-drain (moves between queues and inputs cancel out).
func (nw *Network) Idle() bool { return nw.flits == 0 }

// Step advances the network one clock cycle in three phases, each over
// the routers in ascending id order: route computation, output
// allocation plus switch traversal, then injection. The ascending order
// is part of the model: a flit pushed to a higher-id router can move on
// in the same cycle, and a credit freed by a lower-id router's pop can be
// consumed by a higher-id upstream in the same cycle.
//
// Routers with no buffered flits (occ == 0) are skipped in phases 1 and
// 2: every input is empty, so neither route computation, drop-drain,
// output allocation nor switch arbitration can change any state there.
// Inside a router, needRoute and the outs mask over routedTo skip the
// work that provably cannot act in the same way. Phase 3 skips nodes
// with empty injection queues.
func (nw *Network) Step() {
	// Clear the arrival staging written during the previous cycle, in
	// O(touched) rather than O(mesh).
	for _, ai := range nw.touched {
		nw.arrivals[ai] = 0
	}
	nw.touched = nw.touched[:0]
	for r := range nw.routers {
		if nw.routers[r].occ != 0 {
			nw.routeRouter(r)
		}
	}
	for r := range nw.routers {
		if nw.routers[r].occ != 0 {
			nw.moveRouter(r)
		}
	}
	for nidx := range nw.inject {
		if nw.inject[nidx].flits != 0 {
			nw.injectNode(nidx)
		}
	}
	nw.cycle++
	nw.stats.Cycles = nw.cycle
}

// isTail reports whether a flit closes its packet.
func isTail(t FlitType) bool { return t == TailFlit || t == HeadTailFlit }

// routeRouter is phase 1 for one router: route computation for the fresh
// head at each input. A head that no live link can carry toward its
// destination kills the packet (unroutable); its input then drains the
// worm's flits into the void.
func (nw *Network) routeRouter(r int) {
	rt := &nw.routers[r]
	if rt.needRoute == 0 {
		return // no input holds an unrouted fresh head
	}
	for p := range rt.in {
		in := &rt.in[p]
		if in.route != routeNone || in.size() == 0 {
			continue
		}
		// Worms are contiguous in the FIFO and the route clears as a tail
		// leaves, so an unrouted non-empty input holds a head at front.
		head := in.front()
		out := nw.route(r, int(head.dst))
		if nw.dead != nil && out >= 0 && int(head.hops) > nw.hopLimit {
			// Misroute livelock: the packet keeps bouncing between live
			// links without reaching dst.
			out = routeDrop
		}
		in.route = out
		rt.needRoute--
		if out == routeDrop {
			nw.stats.UnroutablePackets++
			if nw.trace != nil {
				nw.trace.Instant("unroutable", "noc", r, nw.cycle,
					obs.KV{K: "pkt", V: head.packetID}, obs.KV{K: "dst", V: uint64(head.dst)})
			}
			delete(nw.pending, head.packetID)
		} else {
			rt.routedTo[out]++
			rt.outs |= 1 << out
		}
	}
}

// moveRouter is phase 2 for one router: drop-drain, output allocation,
// and switch traversal. Each output moves at most one flit per cycle,
// from the input that holds it until the tail passes.
func (nw *Network) moveRouter(r int) {
	rt := &nw.routers[r]
	// Drain inputs holding a killed packet: one flit per cycle vanishes
	// without contending for any output.
	if nw.dead != nil {
		for p := range rt.in {
			in := &rt.in[p]
			if in.route != routeDrop || in.size() == 0 {
				continue
			}
			tail := isTail(in.front().ftype)
			in.pop()
			rt.occ--
			nw.flits--
			if tail {
				in.route = routeNone
				if in.size() > 0 {
					rt.needRoute++ // next worm's head is now at the front
				}
			}
		}
	}
	// Only outputs some input is routed to can allocate or send (a grant
	// needs a routed input, so a granted output's bit is set). Phase 2
	// can clear only the bit of the output it is serving, so walking a
	// snapshot of the mask visits exactly the live set.
	for m := rt.outs; m != 0; m &= m - 1 {
		out := bits.TrailingZeros8(m)
		// Grant a free output to the next requesting input in
		// round-robin order.
		if rt.outOwner[out] < 0 {
			for step := 1; step <= numPorts; step++ {
				cand := (int(rt.rrIn[out]) + step) % numPorts
				if in := &rt.in[cand]; in.route == out && in.size() > 0 {
					rt.outOwner[out] = int8(cand)
					rt.rrIn[out] = int8(cand)
					break
				}
			}
		}
		owner := int(rt.outOwner[out])
		if owner < 0 {
			continue
		}
		in := &rt.in[owner]
		if in.size() == 0 {
			continue // next flit not arrived yet
		}
		f := in.front()
		tail := isTail(f.ftype)
		if out == PortLocal {
			nw.ejectFlit(r, f)
			nw.flits--
		} else {
			nid, nport, ok := nw.neighbor(r, out)
			if !ok {
				// XY routing never routes off-mesh; bug guard.
				panic(fmt.Sprintf("noc: router %d routed off mesh via %s", r, PortName(out)))
			}
			dst := &nw.routers[nid].in[nport]
			ai := nid*numPorts + nport
			if dst.size()+nw.arrivals[ai] >= nw.cfg.BufferDepth {
				continue // no credit downstream
			}
			g := dst.push(f)
			g.hops++
			if nw.faultsOn && nw.cfg.Faults.LinkCorrupt(g.packetID, int(g.seq), int(g.attempt), r) {
				// Transient link fault: the flit's payload is corrupted
				// in transit. The per-packet checksum catches it at the
				// destination NI.
				g.corrupt = true
				nw.stats.CorruptFlits++
			}
			nw.markDirty(nid)
			nrt := &nw.routers[nid]
			nrt.occ++
			if dst.route == routeNone && dst.size() == 1 {
				nrt.needRoute++ // fresh head landed in an empty input
			}
			nw.arrivals[ai]++
			nw.touched = append(nw.touched, ai)
			nw.stats.LinkTraverse++
		}
		nw.stats.RouterTraverse++
		nw.perRouter[r]++
		in.pop()
		rt.occ--
		if tail {
			rt.outOwner[out] = -1
			rt.routedTo[out]--
			if rt.routedTo[out] == 0 {
				rt.outs &^= 1 << out
			}
			in.route = routeNone
			if in.size() > 0 {
				rt.needRoute++ // next worm's head is now at the front
			}
		}
	}
}

// injectNode is phase 3 for one node with a non-empty injection queue:
// injection into the local input port, one flit per cycle per node.
func (nw *Network) injectNode(nidx int) {
	q := &nw.inject[nidx]
	p := q.pkts.Front()
	rt := &nw.routers[nidx]
	in := &rt.in[PortLocal]
	if in.size()+nw.arrivals[nidx*numPorts+PortLocal] >= nw.cfg.BufferDepth {
		return
	}
	in.push(&p.next)
	q.flits--
	if p.next.seq == p.last {
		q.pkts.Pop()
	} else {
		p.next.seq++
		p.next.ftype = BodyFlit
		if p.next.seq == p.last {
			p.next.ftype = TailFlit
		}
	}
	rt.occ++
	if in.route == routeNone && in.size() == 1 {
		rt.needRoute++ // fresh head landed in an empty input
	}
	nw.stats.FlitsInjected++
}

// ejectFlit consumes a flit at its destination NI. The NI verifies the
// per-packet checksum when the tail arrives: a packet containing any
// corrupted flit is NACKed back to its source (over the out-of-band
// control plane, whose single-word signals we do not charge) and
// retransmitted from the source's retransmission buffer until it arrives
// intact or the retry budget runs out.
func (nw *Network) ejectFlit(node int, f *flit) {
	nw.stats.FlitsEjected++
	id := f.packetID
	if f.corrupt {
		if nw.corrupted == nil {
			nw.corrupted = make(map[uint64]bool)
		}
		nw.corrupted[id] = true
	}
	if !isTail(f.ftype) {
		return
	}
	if nw.corrupted[id] {
		delete(nw.corrupted, id)
		if int(f.attempt) >= nw.maxRetries {
			nw.stats.LostPackets++
			if nw.trace != nil {
				nw.trace.Instant("drop", "noc", node, nw.cycle+1,
					obs.KV{K: "pkt", V: id}, obs.KV{K: "attempt", V: uint64(f.attempt)})
			}
			delete(nw.pending, id)
			return
		}
		nw.retransmit(f)
		return
	}
	// Tail: the packet is fully delivered. Ejection happens during the
	// current cycle (nw.cycle increments at the end of Step), so the
	// delivery completes at cycle nw.cycle+1 — counting the delivery
	// cycle itself, consistently with the injection cycle being counted.
	nw.stats.PacketsOut++
	delivered := nw.cycle + 1
	lat := delivered - f.enqueued
	nw.stats.LatencySum += lat
	if nw.latHist != nil {
		nw.latHist.Observe(lat)
	}
	if nw.trace != nil || nw.sink != nil {
		pkt, ok := nw.pending[id]
		if !ok {
			pkt = Packet{ID: id}
		}
		if nw.trace != nil {
			// The packet's in-flight life as a span on the destination
			// node, keyed to its injection cycle so export order is
			// simulated-time order regardless of when the tail arrives.
			nw.trace.Span("pkt", "noc", node, f.enqueued, lat,
				obs.KV{K: "pkt", V: id}, obs.KV{K: "src", V: uint64(pkt.Src)}, obs.KV{K: "attempt", V: uint64(f.attempt)})
		}
		if nw.sink != nil {
			nw.sink(Delivery{Packet: pkt, Cycle: delivered, Latency: lat})
		}
	}
	delete(nw.pending, id)
}

// retransmit re-enqueues a NACKed packet at its source with the attempt
// counter bumped. The original injection cycle is preserved so the
// packet's eventual latency includes the recovery time.
func (nw *Network) retransmit(tail *flit) {
	p, ok := nw.pending[tail.packetID]
	if !ok {
		// Descriptor gone (cannot happen short of a client bug): drop.
		nw.stats.LostPackets++
		return
	}
	nw.stats.RetransmittedPackets++
	if nw.trace != nil {
		nw.trace.Instant("retransmit", "noc", p.Src, nw.cycle+1,
			obs.KV{K: "pkt", V: p.ID}, obs.KV{K: "attempt", V: uint64(tail.attempt) + 1})
	}
	nw.enqueueFlits(p, tail.enqueued, tail.attempt+1)
}

// DroppedPackets returns the packets permanently lost so far (retry
// budget exhausted or unroutable) — the cheap liveness check clients use
// to fail fast instead of waiting on data that will never arrive.
func (nw *Network) DroppedPackets() uint64 {
	return nw.stats.LostPackets + nw.stats.UnroutablePackets
}

// RunUntilIdle steps the network until it drains or maxCycles elapse,
// returning the cycles consumed and whether it drained.
func (nw *Network) RunUntilIdle(maxCycles uint64) (uint64, bool) {
	start := nw.cycle
	for !nw.Idle() {
		if nw.cycle-start >= maxCycles {
			return nw.cycle - start, false
		}
		nw.Step()
	}
	return nw.cycle - start, true
}
