package main

import (
	"fmt"
	"io"
	"time"
)

// schedule compresses a trace's own sink-arrival spacing to a fixed mean
// rate: record i falls due at (arrival[i]-arrival[0]) scaled so the whole
// trace spans (n-1)/rate seconds.
func schedule(arrivals []time.Duration, rate float64) []time.Duration {
	due := make([]time.Duration, len(arrivals))
	if len(arrivals) < 2 {
		return due
	}
	span := float64(arrivals[len(arrivals)-1] - arrivals[0])
	target := float64(len(arrivals)-1) / rate * float64(time.Second)
	for i, a := range arrivals {
		due[i] = time.Duration(float64(a-arrivals[0]) / span * target)
	}
	return due
}

// dueBy returns the end of the batch that starts at from: the first index
// at or after from whose due time is later than now.
func dueBy(due []time.Duration, from int, now time.Duration) int {
	j := from
	for j < len(due) && due[j] <= now {
		j++
	}
	return j
}

// pacer is the open-loop generator: one goroutine wakes every tick and
// writes every frame that has fallen due as one batch. A write that blocks
// (the system under test pushing back) makes the following batches late;
// the schedule does not slow down, so lateness records the stall.
type pacer struct {
	tick time.Duration
	// late[i] is how long after due[i] record i's batch write began.
	late []time.Duration
}

// run writes frames[i] (the byte range offs[i]..offs[i+1] of body) at
// due[i] after start.
func (p *pacer) run(w io.Writer, body []byte, offs []int, due []time.Duration, start time.Time) error {
	n := len(due)
	p.late = make([]time.Duration, n)
	t := time.NewTicker(p.tick)
	defer t.Stop()
	for i := 0; i < n; {
		now := time.Since(start)
		j := dueBy(due, i, now)
		if j == i {
			<-t.C
			continue
		}
		p.record(i, j, now, due)
		if _, err := w.Write(body[offs[i]:offs[j]]); err != nil {
			return fmt.Errorf("pacer: %w", err)
		}
		i = j
	}
	return nil
}

// record stamps the batch [i, j) as sent at now.
func (p *pacer) record(i, j int, now time.Duration, due []time.Duration) {
	for k := i; k < j; k++ {
		p.late[k] = now - due[k]
	}
}
