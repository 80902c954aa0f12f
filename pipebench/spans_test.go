package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100): children a [10,30) and b [20,50) overlap, c [90,120)
	// runs past the root; a has a child [12,18).
	spans := []span{
		{Name: "harness.round", Start: 0, End: 100, Parent: -1},
		{Name: "wire.decode", Start: 10, End: 30, Parent: 0},
		{Name: "wal.append", Start: 20, End: 50, Parent: 0},
		{Name: "stream.push", Start: 90, End: 120, Parent: 0},
		{Name: "core.estimate", Start: 12, End: 18, Parent: 1},
		{Name: "other.root", Start: 0, End: 7, Parent: -1},
	}
	got := selfTimes(spans)
	// root covers [10,50) and [90,100): 40+10 = 50 of 100.
	want := []time.Duration{50, 14, 30, 30, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	// setSelf credits each direct child of a pass root to its layer and the
	// root's own time to the harness; other roots are off the path.
	rep := newLayerReport()
	setSelf(rep, spans, []int{0}, []float64{0.00008})
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for name, want := range map[string]time.Duration{
		"wire.self_ms": 14, "wal.self_ms": 30, "stream.self_ms": 30, "core.self_ms": 0, "harness.self_ms": 50,
		"harness.traced_ms": 100,
	} {
		if got := rep.values[name]; got != ms(want) {
			t.Errorf("%s = %g, want %g", name, got, ms(want))
		}
	}
	if got, want := rep.values["harness.trace_overhead_ms"], ms(100)-0.00008; got != want {
		t.Errorf("trace overhead = %g, want %g", got, want)
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	// Sequential children: the root's self time plus the children's self
	// times add up to the root's duration exactly.
	tr := newTracer()
	root := tr.begin("harness.round", -1, -1)
	for i := 0; i < 5; i++ {
		tr.call("wire.decode", root, -1, func() { time.Sleep(time.Millisecond) })
	}
	tr.end(root)
	spans := tr.snapshot()
	self := selfTimes(spans)
	var sum time.Duration
	for _, s := range self {
		sum += s
	}
	if d := spans[root].End - spans[root].Start; sum != d {
		t.Errorf("self times sum to %v, root lasted %v", sum, d)
	}
	if got := len(durations(spans, "wire.decode")); got != 5 {
		t.Errorf("%d decode spans, want 5", got)
	}
}

func TestLayer(t *testing.T) {
	for in, want := range map[string]string{"core.estimate": "core", "harness": "harness", "wal.sync": "wal"} {
		if got := layer(in); got != want {
			t.Errorf("layer(%q) = %q, want %q", in, got, want)
		}
	}
}
