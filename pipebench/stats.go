package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"

	domo "github.com/domo-net/domo"
	"github.com/domo-net/domo/internal/trace"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of values (p in
// (0, 100]) and how many samples lie strictly beyond its rank. values is
// sorted in place.
func percentile(values []float64, p float64) (v float64, beyond int) {
	if len(values) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(values)
	rank := int(math.Ceil(p / 100 * float64(len(values))))
	if rank < 1 {
		rank = 1
	}
	return values[rank-1], len(values) - rank
}

// tailPercentile is percentile that refuses a tail the sample cannot
// support: fewer than minTail samples beyond the rank is an error.
func tailPercentile(values []float64, p float64) (float64, error) {
	v, beyond := percentile(values, p)
	if beyond < minTail {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, want at least %d", p, len(values), beyond, minTail)
	}
	return v, nil
}

// repeatPercentile takes latency samples per window, each window's
// slice holding its latency on every round that fed it, and returns the
// p-th percentile over windows of each window's median, with at least
// minTail windows beyond it. A window's repeats are spread over the run,
// so a slow stretch of the host moves few window medians.
func repeatPercentile(windows [][]float64, p float64) (float64, error) {
	medians := make([]float64, 0, len(windows))
	for _, w := range windows {
		if len(w) > 0 {
			medians = append(medians, median(w))
		}
	}
	return tailPercentile(medians, p)
}

// median returns the median of values (the mean of the middle pair for an
// even count), sorting a copy.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the "exclusive" method),
// so the steadiness report matches the acceptance arithmetic.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// statistics.quantiles, method="exclusive", transcribed: m = n+1,
		// j clamped to [1, n-1], linear interpolation in quarters.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// digest folds reconstructed arrival times into an order-sensitive hash, so
// two runs over the same input can be compared bit for bit.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

// window folds one reconstructed trace: a window tag, then every packet's
// id and estimated arrival times in trace order.
func (d *digest) window(tag int, recs []*trace.Record, arrivals func(trace.PacketID) ([]time.Duration, error)) error {
	d.int(int64(tag))
	for _, r := range recs {
		arr, err := arrivals(r.ID)
		if err != nil {
			return fmt.Errorf("digest: %w", err)
		}
		d.int(int64(r.ID.Source))
		d.int(int64(r.ID.Seq))
		for _, a := range arr {
			d.int(int64(a))
		}
	}
	return nil
}

// facadeWindow is window for a public trace and reconstruction.
func (d *digest) facadeWindow(tag int, tr *domo.Trace, rec *domo.Reconstruction) error {
	return d.window(tag, tr.Internal().Records, func(id trace.PacketID) ([]time.Duration, error) {
		return rec.Arrivals(domo.PacketID{Source: domo.NodeID(id.Source), Seq: id.Seq})
	})
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
