package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call. Parent is the index of the enclosing span,
// or -1 at the top.
type span struct {
	name       string
	start, end time.Duration // since the tracer was created
	parent     int
	alloc      uint64 // heap bytes allocated inside the span, when tracked
	trackAlloc bool
}

// tracer keeps the spans of a traced run in memory. Calls into it come
// from one goroutine: the benchmark drives the program sequentially and
// the layers' own worker pools stay inside single spans. A nil *tracer
// is the untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// beginAlloc is begin for a span that also records the heap bytes
// allocated inside it. Reading the allocation counter stops the world
// briefly, so only spans whose allocation is a reported metric use it.
func (t *tracer) beginAlloc(name string) int {
	if t == nil {
		return -1
	}
	id := t.begin(name)
	t.spans[id].trackAlloc = true
	t.spans[id].alloc = totalAlloc()
	t.spans[id].start = time.Since(t.t0)
	return id
}

// end closes the span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	if s.trackAlloc {
		s.alloc = totalAlloc() - s.alloc
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// mark returns the number of spans recorded so far, so that a caller
// can aggregate only the spans of one pass.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// spanTotals sums, per span name, the duration, self time (duration
// minus the time covered by direct children), allocation and call count.
type spanTotals map[string]*spanTotal

type spanTotal struct {
	total, self time.Duration
	alloc       uint64
	calls       int
}

func (st spanTotals) get(name string) spanTotal {
	if v, ok := st[name]; ok {
		return *v
	}
	return spanTotal{}
}

// totals aggregates the spans recorded since mark from.
func (t *tracer) totals(from int) spanTotals {
	out := spanTotals{}
	if t == nil {
		return out
	}
	child := make([]time.Duration, len(t.spans)-from)
	for i := from; i < len(t.spans); i++ {
		if p := t.spans[i].parent; p >= from {
			child[p-from] += t.spans[i].end - t.spans[i].start
		}
	}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		v := out[s.name]
		if v == nil {
			v = &spanTotal{}
			out[s.name] = v
		}
		d := s.end - s.start
		v.total += d
		v.self += d - child[i-from]
		v.alloc += s.alloc
		v.calls++
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" record; Perfetto and
// chrome://tracing load a file of them.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i, "parent": s.parent}
		if s.trackAlloc {
			args["alloc_bytes"] = s.alloc
		}
		events[i] = traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// totalAlloc returns the cumulative heap bytes the process allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
