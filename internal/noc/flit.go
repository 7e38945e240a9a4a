// Package noc is a cycle-accurate simulator of the 2-D mesh network-on-
// chip at the heart of the paper's accelerator platform (a Noxim-class
// model): wormhole switching, dimension-ordered XY routing, credit-based
// flow control over input-buffered five-port routers, 64-bit flits at
// 1 GHz. Energy is back-annotated per event (router traversal, link
// traversal) plus leakage over time, exactly the methodology of the
// paper's Sec. IV-A.
package noc

import "fmt"

// FlitType marks a flit's position within its packet.
type FlitType int8

// Flit types. A single-flit packet is HeadTail.
const (
	HeadFlit FlitType = iota
	BodyFlit
	TailFlit
	HeadTailFlit
)

// String implements fmt.Stringer.
func (t FlitType) String() string {
	switch t {
	case HeadFlit:
		return "head"
	case BodyFlit:
		return "body"
	case TailFlit:
		return "tail"
	case HeadTailFlit:
		return "headtail"
	default:
		return fmt.Sprintf("flit(%d)", int(t))
	}
}

// Packet is the unit of transfer presented to the network interface. The
// network segments it into flits.
type Packet struct {
	ID    uint64
	Src   int    // source node id
	Dst   int    // destination node id
	Flits int    // packet length in flits (>= 1)
	Tag   uint64 // opaque client tag, returned on delivery (the accelerator packs kind, PE and round)
}

// flit is the internal wire unit, laid out in 32 bytes (widest fields
// first, no padding holes) because the router pipeline moves flits
// between router inputs every cycle. It carries no source node: the delivery
// trace, the only reader, takes it from the packet descriptor.
type flit struct {
	packetID uint64
	enqueued uint64   // cycle the packet entered the source injection queue
	dst      int32    // destination node id
	seq      int32    // flit position within the packet (checksum fault key)
	hops     uint16   // link traversals so far (misroute livelock bound)
	ftype    FlitType // position within the packet
	attempt  uint8    // end-to-end retransmission attempt number
	corrupt  bool     // payload corrupted in transit (checksum will fail at the NI)
}

// Delivery reports a packet fully received at its destination.
type Delivery struct {
	Packet  Packet
	Cycle   uint64 // cycle count when the tail ejection completed (the ejection cycle is counted)
	Latency uint64 // Cycle minus injection-queue entry cycle
}

// Port indices of a router.
const (
	PortLocal = iota
	PortNorth
	PortEast
	PortSouth
	PortWest
	numPorts
)

var portNames = [numPorts]string{"local", "north", "east", "south", "west"}

// PortName returns a human-readable port name.
func PortName(p int) string {
	if p < 0 || p >= numPorts {
		return fmt.Sprintf("port(%d)", p)
	}
	return portNames[p]
}
