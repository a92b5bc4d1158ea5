package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies the library call (or harness step) a span times.
// The name before the dot is the layer.
type spanName uint8

const (
	spInterval spanName = iota
	spQueueJoin
	spQueueLeave
	spRekey
	spCredentials
	spParity
	spWireENC
	spWireParity
	spWireUSR
	spNACKParse
	spIngest
	spMemberNACK
	spNetsim
	spCheck
)

var spanNames = [...]string{
	spInterval:    "interval",
	spQueueJoin:   "rekey.QueueJoin",
	spQueueLeave:  "rekey.QueueLeave",
	spRekey:       "rekey.Rekey",
	spCredentials: "rekey.Credentials",
	spParity:      "fec.PrecomputeParity",
	spWireENC:     "wire.WireENC",
	spWireParity:  "wire.AppendWireParity",
	spWireUSR:     "wire.WireUSR",
	spNACKParse:   "nack.parse",
	spIngest:      "member.Ingest",
	spMemberNACK:  "member.NACK",
	spNetsim:      "harness.netsim",
	spCheck:       "harness.check",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call into the library, recorded by the benchmark
// around the call. Spans of one rekey interval share its epoch, the
// benchmark's own 64-bit interval counter (the wire's 6-bit message ID
// wraps every 64 intervals).
type span struct {
	start, end time.Duration // since the tracer's base
	epoch      uint64
	parent     int32 // index of the enclosing span, -1 for a root
	name       spanName
}

// tracer keeps spans in memory until the run ends. The harness is
// single-threaded, so spans nest strictly and a stack gives each its
// parent. A nil *tracer records nothing.
type tracer struct {
	base  time.Time
	epoch uint64
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) setEpoch(e uint64) {
	if t != nil {
		t.epoch = e
	}
}

func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, epoch: t.epoch, start: time.Since(t.base)})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.base)
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, per span name, the summed self time of the spans
// of epochs above minEpoch: each span's duration minus the part its
// child spans cover.
func (t *tracer) selfTimes(minEpoch uint64) map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.epoch > minEpoch {
			out[s.name.String()] += s.end - s.start - child[i]
		}
	}
	return out
}

// durations returns the durations of the named spans of epochs above
// minEpoch.
func (t *tracer) durations(name spanName, minEpoch uint64) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.epoch > minEpoch && s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// write stores the spans as gzipped tab-separated lines: epoch, span
// index, parent index, name, start and end in nanoseconds since the
// run's trace base.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level cannot fail
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "epoch\tspan\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.epoch, i, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
