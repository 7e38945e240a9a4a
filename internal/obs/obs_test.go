package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("pkts")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if m.Counter("pkts") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := m.Gauge("occ")
	g.Set(7)
	g.Set(3)
	g.Max(5)
	if g.Value() != 3 || g.MaxValue() != 7 {
		t.Fatalf("gauge = (%d, max %d), want (3, max 7)", g.Value(), g.MaxValue())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 || h.Sum() != 5050 {
		t.Fatalf("count/sum = %d/%d, want 100/5050", h.Count(), h.Sum())
	}
	if got := h.Quantile(0.50); got != 100 {
		t.Fatalf("p50 = %d, want 100 (bucket upper bound)", got)
	}
	if got := h.Quantile(0.05); got != 10 {
		t.Fatalf("p05 = %d, want 10", got)
	}
	h.Observe(5000) // overflow bucket -> exact max
	if got := h.Quantile(1.0); got != 5000 {
		t.Fatalf("p100 = %d, want exact max 5000", got)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram must report 0")
	}
}

func TestPow2Buckets(t *testing.T) {
	b := Pow2Buckets(4)
	want := []uint64{1, 2, 4, 8, 16}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("b[%d] = %d, want %d", i, b[i], want[i])
		}
	}
}

// TestNilSafety drives every handle through a nil receiver: nothing may
// panic and nothing may allocate.
func TestNilSafety(t *testing.T) {
	var o *Observer
	var m *Metrics
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	var b *Buffer

	allocs := testing.AllocsPerRun(100, func() {
		_ = o.M()
		_ = o.T()
		_ = o.LayerBuffer("x", 0, "l")
		_ = m.Counter("a")
		_ = m.Gauge("a")
		_ = m.Histogram("a", nil)
		c.Add(1)
		c.Inc()
		_ = c.Value()
		g.Set(1)
		g.Max(2)
		h.Observe(3)
		_ = h.Count()
		_ = h.Quantile(0.5)
		_ = tr.Buffer("x", 0, "l")
		_ = tr.EventCount()
		b.Reset()
		_ = b.Len()
	})
	if allocs != 0 {
		t.Fatalf("nil-receiver path allocated %.1f allocs/op, want 0", allocs)
	}

	// Span/Instant on a nil buffer: call sites must guard to avoid the
	// variadic slice, but the bare call itself must still be a no-op.
	b.Span("s", "c", 0, 1, 2)
	b.Instant("i", "c", 0, 1)
	if err := m.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tr.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != `{"traceEvents":[]}` {
		t.Fatalf("nil trace export = %q", sb.String())
	}
}

// TestTraceDeterminism creates the same buffers from concurrent
// goroutines in scrambled order and checks the export is byte-identical
// to a sequential construction.
func TestTraceDeterminism(t *testing.T) {
	build := func(parallel bool) string {
		tr := NewTrace()
		fill := func(layer int) {
			b := tr.Buffer("lenet", layer, "conv")
			// Emit out of cycle order: export must re-sort.
			b.Span("mac", "compute", 2, uint64(100+layer), 50, KV{"ops", 10})
			b.Span("dram_read", "memory", 0, uint64(layer), 30)
			b.Instant("eject", "noc", 3, uint64(200+layer))
		}
		if parallel {
			var wg sync.WaitGroup
			for _, layer := range []int{3, 1, 0, 2} {
				wg.Add(1)
				go func(l int) { defer wg.Done(); fill(l) }(layer)
			}
			wg.Wait()
		} else {
			for layer := 0; layer < 4; layer++ {
				fill(layer)
			}
		}
		var sb strings.Builder
		if err := tr.WriteChromeJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	seq := build(false)
	for i := 0; i < 8; i++ {
		if got := build(true); got != seq {
			t.Fatalf("parallel construction changed export\nseq: %s\npar: %s", seq, got)
		}
	}
	if !json.Valid([]byte(seq)) {
		t.Fatalf("export is not valid JSON: %s", seq)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(seq), &parsed); err != nil {
		t.Fatal(err)
	}
	// 4 buffers x (1 metadata + 3 events).
	if len(parsed.TraceEvents) != 16 {
		t.Fatalf("traceEvents = %d, want 16", len(parsed.TraceEvents))
	}
}

func TestTraceSortOrder(t *testing.T) {
	tr := NewTrace()
	b := tr.Buffer("m", 0, "l")
	b.Instant("late", "c", 1, 10)
	b.Instant("early", "c", 5, 2)
	b.Instant("same-cycle-hi-node", "c", 7, 2)
	ev := b.sorted()
	want := []string{"early", "same-cycle-hi-node", "late"}
	for i, name := range want {
		if ev[i].Name != name {
			t.Fatalf("sorted[%d] = %s, want %s", i, ev[i].Name, name)
		}
	}
}

func TestTraceBufferLimit(t *testing.T) {
	tr := NewTrace()
	tr.SetBufferLimit(2)
	b := tr.Buffer("m", 0, "l")
	for i := 0; i < 5; i++ {
		b.Instant("e", "c", 0, uint64(i))
	}
	if b.Len() != 2 || b.Dropped() != 3 {
		t.Fatalf("len/dropped = %d/%d, want 2/3", b.Len(), b.Dropped())
	}
	if tr.DroppedCount() != 3 {
		t.Fatalf("trace dropped = %d, want 3", tr.DroppedCount())
	}
	var sb strings.Builder
	if err := tr.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"dropped_events":"3"`) {
		t.Fatalf("export missing dropped count: %s", sb.String())
	}
}

func TestTraceCSV(t *testing.T) {
	tr := NewTrace()
	b := tr.Buffer("lenet", 0, "conv1")
	b.Span("mac", "compute", 4, 10, 20, KV{"ops", 7})
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "scope,layer,name,cat,node,cycle,dur,args\nlenet,conv1,mac,compute,4,10,20,ops=7\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

func TestMetricsExport(t *testing.T) {
	m := NewMetrics()
	m.Counter("b_ct").Add(2)
	m.Counter("a_ct").Add(1)
	m.Gauge("g").Set(9)
	h := m.Histogram("lat", Pow2Buckets(4))
	h.Observe(3)
	var txt strings.Builder
	if err := m.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"counter a_ct 1", "counter b_ct 2", "gauge g 9 max 9", "histogram lat count 1"}
	pos := -1
	for _, frag := range wantOrder {
		p := strings.Index(txt.String(), frag)
		if p < 0 || p < pos {
			t.Fatalf("export out of order or missing %q:\n%s", frag, txt.String())
		}
		pos = p
	}
	var csv strings.Builder
	if err := m.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "kind,name,value,mean,p50,p95,p99,max\n") {
		t.Fatalf("csv header wrong: %s", csv.String())
	}
}

func TestManifestStable(t *testing.T) {
	mk := func() *Manifest {
		return &Manifest{
			Tool:         "nocsim",
			Model:        "lenet",
			MatMulKernel: "avx2",
			Mesh:         [2]int{4, 4},
			MemNodes:     []int{0, 3, 12, 15},
			CodecPlan:    []CodecAssignment{{Layer: "conv1", Codec: "huffman"}},
			Results:      &RunResults{TotalCycles: 123, EnergyPJ: 4.5},
			TierTimings:  []TierTiming{{Layer: "conv1", TotalCycles: 123, MemoryCycles: 50}},
		}
	}
	a, err := mk().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("manifest encoding is not byte-stable")
	}
	if !json.Valid(a) {
		t.Fatalf("manifest is not valid JSON: %s", a)
	}
	var round Manifest
	if err := json.Unmarshal(a, &round); err != nil {
		t.Fatal(err)
	}
	if round.Results == nil || round.Results.TotalCycles != 123 || round.MatMulKernel != "avx2" {
		t.Fatalf("round-trip mismatch: %+v", round)
	}
	if bytes.Contains(a, []byte("workers")) || bytes.Contains(a, []byte("wall")) {
		t.Fatal("manifest must not record worker counts or wall time")
	}
}

func TestJSONStringEscaping(t *testing.T) {
	tr := NewTrace()
	b := tr.Buffer(`sc"ope`, 0, "l\n2")
	b.Instant(`ev"t\`, "c", 0, 1)
	var sb strings.Builder
	if err := tr.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatalf("escaped export is not valid JSON: %s", sb.String())
	}
}
