package main

import (
	"math"
	"testing"
	"time"

	"github.com/domo-net/domo/internal/radio"
	"github.com/domo-net/domo/internal/trace"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending, so sorting matters
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{1000, 99, 990, 10},
		{1000, 50, 500, 500},
		{1001, 99, 991, 10},
		{999, 99, 990, 9},
		{10, 100, 10, 0},
		{1, 50, 1, 0},
	} {
		v, beyond := percentile(seq(c.n), c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("p%g of 1..%d = %g with %d beyond, want %g with %d", c.p, c.n, v, beyond, c.want, c.wantBeyond)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := tailPercentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	v, err := tailPercentile(seq(1000), 99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1000 samples = %g, %v; want 990", v, err)
	}
	if _, err := tailPercentile(nil, 50); err == nil {
		t.Error("an empty sample must be refused")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(5), [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{110, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{30, 60, 90}},
	} {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %g, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func digestOf(t *testing.T, recs []*trace.Record, arr map[trace.PacketID][]time.Duration, tag int) uint64 {
	t.Helper()
	d := newDigest()
	err := d.window(tag, recs, func(id trace.PacketID) ([]time.Duration, error) { return arr[id], nil })
	if err != nil {
		t.Fatal(err)
	}
	return d.sum()
}

func TestDigestIsExactAndOrderSensitive(t *testing.T) {
	a := &trace.Record{ID: trace.PacketID{Source: radio.NodeID(3), Seq: 1}}
	b := &trace.Record{ID: trace.PacketID{Source: radio.NodeID(4), Seq: 1}}
	arr := map[trace.PacketID][]time.Duration{a.ID: {0, 5, 9}, b.ID: {1, 7}}
	base := digestOf(t, []*trace.Record{a, b}, arr, 0)
	if again := digestOf(t, []*trace.Record{a, b}, arr, 0); again != base {
		t.Error("the same window digests differently")
	}
	if swapped := digestOf(t, []*trace.Record{b, a}, arr, 0); swapped == base {
		t.Error("record order does not change the digest")
	}
	if retagged := digestOf(t, []*trace.Record{a, b}, arr, 1); retagged == base {
		t.Error("the window tag does not change the digest")
	}
	arr[b.ID] = []time.Duration{1, 8}
	if moved := digestOf(t, []*trace.Record{a, b}, arr, 0); moved == base {
		t.Error("a one-nanosecond estimate change does not change the digest")
	}
}

func TestRepeatPercentile(t *testing.T) {
	// 200 windows; window i repeats i+1 three times and, in one slow
	// stretch, 1000 once. Each window's median is i+1, so p90 over the
	// window medians is 180 and the slow repeats do not show.
	windows := make([][]float64, 200)
	for i := range windows {
		v := float64(i + 1)
		windows[i] = []float64{v, 1000, v, v}
	}
	if v, err := repeatPercentile(windows, 90); err != nil || v != 180 {
		t.Errorf("p90 over window medians = %g, %v; want 180", v, err)
	}
	if v, err := repeatPercentile(windows, 50); err != nil || v != 100 {
		t.Errorf("p50 over window medians = %g, %v; want 100", v, err)
	}
	// 100 windows leave exactly minTail beyond p90; 99 leave too few.
	if _, err := repeatPercentile(windows[:100], 90); err != nil {
		t.Errorf("p90 over 100 windows: %v", err)
	}
	if _, err := repeatPercentile(windows[:99], 90); err == nil {
		t.Error("p90 over 99 windows must be refused")
	}
}
