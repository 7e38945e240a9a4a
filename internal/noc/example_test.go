package noc_test

import (
	"fmt"

	"repro/internal/noc"
)

// Example sends one packet across the paper's 4x4 mesh and reports its
// delivery.
func Example() {
	nw, err := noc.New(noc.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	nw.SetSink(func(d noc.Delivery) {
		fmt.Printf("delivered %d flits from %d to %d\n", d.Packet.Flits, d.Packet.Src, d.Packet.Dst)
	})
	if err := nw.Inject(noc.Packet{Src: 0, Dst: 15, Flits: 4}); err != nil {
		fmt.Println(err)
		return
	}
	if _, ok := nw.RunUntilIdle(10000); !ok {
		fmt.Println("did not drain")
		return
	}
	st := nw.Stats()
	fmt.Printf("flits conserved: %v\n", st.FlitsInjected == st.FlitsEjected)
	// Output:
	// delivered 4 flits from 0 to 15
	// flits conserved: true
}

// ExampleNetwork_SendMessage segments a large transfer into packets.
func ExampleNetwork_SendMessage() {
	nw, err := noc.New(noc.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	packets, err := nw.SendMessage(0, 5, 100, 7)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("packets:", packets)
	// Output:
	// packets: 4
}
