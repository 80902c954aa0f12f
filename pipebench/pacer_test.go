package main

import (
	"testing"
	"time"
)

func TestScheduleKeepsSpacingAtTheMeanRate(t *testing.T) {
	arrivals := []time.Duration{10 * time.Second, 11 * time.Second, 11 * time.Second, 14 * time.Second, 30 * time.Second}
	due := schedule(arrivals, 2) // 5 records at 2/s span 2s
	want := []time.Duration{0, 100 * time.Millisecond, 100 * time.Millisecond, 400 * time.Millisecond, 2 * time.Second}
	for i := range want {
		if d := due[i] - want[i]; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("due = %v, want %v", due, want)
		}
	}
}

func TestDueBy(t *testing.T) {
	due := []time.Duration{0, 5, 5, 9, 20}
	for _, c := range []struct {
		from int
		now  time.Duration
		want int
	}{{0, 0, 1}, {0, 5, 3}, {1, 8, 3}, {3, 100, 5}, {4, 19, 4}, {5, 100, 5}} {
		if got := dueBy(due, c.from, c.now); got != c.want {
			t.Errorf("dueBy(from %d, now %d) = %d, want %d", c.from, c.now, got, c.want)
		}
	}
}

func TestPacerRecordsLateness(t *testing.T) {
	due := []time.Duration{0, 10, 20, 30}
	p := &pacer{late: make([]time.Duration, 4)}
	p.record(0, 2, 15, due)
	p.record(2, 4, 45, due)
	wantLate := []time.Duration{15, 5, 25, 15}
	for i := range due {
		if p.late[i] != wantLate[i] {
			t.Fatalf("late %v, want %v", p.late, wantLate)
		}
	}
}

// stallWriter records each batch and blocks on the one given.
type stallWriter struct {
	batches [][]byte
	stallAt int
	stall   time.Duration
}

func (w *stallWriter) Write(b []byte) (int, error) {
	w.batches = append(w.batches, append([]byte(nil), b...))
	if len(w.batches)-1 == w.stallAt {
		time.Sleep(w.stall)
	}
	return len(b), nil
}

func TestPacerBatchesAndStalls(t *testing.T) {
	// Four one-byte frames: two due at once, then one each 30ms apart; the
	// first write stalls 60ms, so the next records go out late.
	body := []byte("hABCD")
	offs := []int{1, 2, 3, 4, 5}
	due := []time.Duration{0, 0, 30 * time.Millisecond, 60 * time.Millisecond}
	w := &stallWriter{stallAt: 0, stall: 60 * time.Millisecond}
	p := &pacer{tick: time.Millisecond}
	if err := p.run(w, body, offs, due, time.Now()); err != nil {
		t.Fatal(err)
	}
	var sent []byte
	for _, b := range w.batches {
		sent = append(sent, b...)
	}
	if string(sent) != "ABCD" || string(w.batches[0]) != "AB" {
		t.Fatalf("batches %q, want the first to carry AB and all to carry ABCD", w.batches)
	}
	for i := range due {
		if p.late[i] < 0 {
			t.Fatalf("record %d: due %v, late %v", i, due[i], p.late[i])
		}
	}
	if p.late[0] != p.late[1] {
		t.Errorf("records 0 and 1 went out in one batch but are %v and %v late", p.late[0], p.late[1])
	}
	if p.late[2] < 25*time.Millisecond {
		t.Errorf("record 2 was %v late behind a 60ms stall, want at least 25ms", p.late[2])
	}
}
