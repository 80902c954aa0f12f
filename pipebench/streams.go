package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	domo "github.com/domo-net/domo"
	"github.com/domo-net/domo/internal/trace"
)

// streamSpec describes one streaming workload.
type streamSpec struct {
	name     string
	scenario string
	// closedLoop hands the next frame over as soon as Feed takes the
	// previous one; otherwise frames are paced open-loop at rate.
	closedLoop bool
	rate       float64
	// sanitize turns on per-record sanitizing with counter forensics.
	sanitize bool
	fsync    string
	// checkpointEach checkpoints after every delivered window, as
	// domo-serve does; otherwise only the final window is checkpointed.
	checkpointEach bool
}

var streamSpecs = map[string]streamSpec{
	"stream-durable": {name: "stream-durable", scenario: "churn", closedLoop: true, sanitize: true, fsync: "always", checkpointEach: true},
	"stream-paced":   {name: "stream-paced", scenario: "heavy-tail", rate: pacedRate, fsync: "off"},
}

const (
	// streamMinRounds keeps measuring past the deadline until every
	// replica went through this many fresh streams.
	streamMinRounds = 2
	// violationTol is the slack a bound may miss the ground truth by.
	violationTol = 10 * time.Microsecond
)

func (s streamSpec) config(dir string) domo.StreamConfig {
	c := domo.StreamConfig{NumNodes: streamNodes, WAL: domo.WALConfig{Dir: dir, Fsync: s.fsync}}
	if s.sanitize {
		c.Estimation.AutoSanitize = true
		c.Sanitize.Forensics = true
	}
	return c
}

// due returns each record's open-loop due time, or nil for a closed loop.
func (s streamSpec) due(in *streamInput) []time.Duration {
	if s.closedLoop {
		return nil
	}
	return schedule(in.arrivals, s.rate)
}

// delivery is one window as the consumer received it.
type delivery struct {
	w  *domo.StreamWindow
	at time.Duration // since the round started
}

// roundOut is one pass of the whole input through a fresh Stream.
type roundOut struct {
	wall       time.Duration // start to the last delivered window
	deliveries []delivery
	emit       []float64       // ms per window, Close's tail excluded
	late       []time.Duration // open loop: how late each record was sent
	stats      domo.StreamStats
}

// streamRound feeds the whole input once through a Stream over a fresh
// WAL directory: one producer writes wire frames into a pipe that Feed
// reads, and one consumer drains Results (checkpointing as configured).
func streamRound(ctx context.Context, spec streamSpec, in *streamInput, due []time.Duration, dir string) (*roundOut, error) {
	s, err := domo.OpenStream(ctx, spec.config(dir))
	if err != nil {
		return nil, err
	}
	if err := s.Recovered(); err != nil {
		s.Close()
		return nil, err
	}
	n := in.records()
	pr, pw := io.Pipe()
	start := time.Now()

	consumed := make(chan error, 1)
	var deliveries []delivery
	go func() {
		var cerr error
		var last *domo.StreamWindow
		for w := range s.Results() {
			deliveries = append(deliveries, delivery{w, time.Since(start)})
			if spec.checkpointEach && w.Err == nil && cerr == nil {
				cerr = s.Checkpoint(w, 0)
			}
			last = w
		}
		if !spec.checkpointEach && last != nil && last.Err == nil && cerr == nil {
			cerr = s.Checkpoint(last, 0)
		}
		consumed <- cerr
	}()
	fed := make(chan error, 1)
	go func() {
		err := s.Feed(pr)
		pr.CloseWithError(errors.Join(err, io.ErrClosedPipe))
		fed <- err
	}()

	// ref[i] is when record i was handed over (closed loop) or due (open
	// loop), since start.
	var ref []time.Duration
	var late []time.Duration
	_, perr := pw.Write(in.body[:in.offs[0]])
	if perr == nil {
		if spec.closedLoop {
			ref = make([]time.Duration, n)
			for i := 0; i < n && perr == nil; i++ {
				_, perr = pw.Write(in.body[in.offs[i]:in.offs[i+1]])
				ref[i] = time.Since(start)
			}
		} else {
			p := &pacer{tick: pacerTick}
			perr = p.run(pw, in.body, in.offs, due, start)
			ref, late = due, p.late
		}
	}
	pw.Close()
	ferr := <-fed
	cerr := s.Close()
	if err := errors.Join(<-consumed, ferr, cerr); err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	out := &roundOut{deliveries: deliveries, late: late, stats: s.Stats()}
	if len(deliveries) > 0 {
		out.wall = deliveries[len(deliveries)-1].at
	}
	for k, d := range deliveries[:max(len(deliveries)-1, 0)] {
		last, err := lastRecord(in, d.w.Trace)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", k, err)
		}
		out.emit = append(out.emit, ms(d.at-ref[last]))
	}
	return out, nil
}

// lastRecord is the input position of a window's latest-fed record.
func lastRecord(in *streamInput, tr *domo.Trace) (int, error) {
	last := -1
	for _, id := range tr.Packets() {
		i, ok := in.index[id]
		if !ok {
			return 0, fmt.Errorf("packet %v was never fed", id)
		}
		last = max(last, i)
	}
	if last < 0 {
		return 0, fmt.Errorf("empty window")
	}
	return last, nil
}

// checkRound verifies a round's accounting and returns its output digest.
func checkRound(rep *report, in *streamInput, out *roundOut) (uint64, error) {
	st := out.stats
	n := uint64(in.records())
	rep.attempted += in.records()
	lost := int(n) - int(st.Solved+st.Quarantined)
	rep.failed += max(lost, 0) + int(st.Dropped)
	rep.check(st.Received == n, "received %d of %d fed records", st.Received, n)
	rep.check(st.Dropped == 0, "%d records dropped", st.Dropped)
	rep.check(lost == 0, "%d records neither solved nor quarantined", lost)
	rep.check(st.WindowsFailed == 0, "%d windows failed", st.WindowsFailed)
	rep.check(st.DegradedWindows == 0, "%d windows degraded", st.DegradedWindows)
	rep.check(uint64(len(out.deliveries)) == st.Windows, "%d windows delivered, stream counted %d", len(out.deliveries), st.Windows)
	d := newDigest()
	for _, dl := range out.deliveries {
		if dl.w.Err != nil {
			continue
		}
		if err := d.facadeWindow(dl.w.Index, dl.w.Trace, dl.w.Reconstruction); err != nil {
			return 0, err
		}
	}
	return d.sum(), nil
}

// roundDirs hands out a fresh WAL directory per round under one run
// directory inside the checkout, and removes each round's directory once
// the next one is taken.
type roundDirs struct {
	base string
	k    int
}

func newRoundDirs(workload string, seed int64) (*roundDirs, error) {
	base := filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, fmt.Errorf("run directory: %w", err)
	}
	return &roundDirs{base: base}, nil
}

func (r *roundDirs) next() string {
	if r.k > 0 {
		os.RemoveAll(r.current())
	}
	r.k++
	return r.current()
}

func (r *roundDirs) current() string { return filepath.Join(r.base, fmt.Sprintf("round-%d", r.k)) }

func (r *roundDirs) remove() { os.RemoveAll(r.base) }

// restart measures restart-to-ready over an existing WAL directory:
// OpenStream until Recovered returns.
func restart(ctx context.Context, spec streamSpec, dir string) (time.Duration, domo.StreamStats, error) {
	runtime.GC()
	start := time.Now()
	s, err := domo.OpenStream(ctx, spec.config(dir))
	if err != nil {
		return 0, domo.StreamStats{}, err
	}
	rerr := s.Recovered()
	el := time.Since(start)
	drained := make(chan struct{})
	go func() {
		for range s.Results() {
		}
		close(drained)
	}()
	st := s.Stats()
	cerr := s.Close()
	<-drained
	return el, st, errors.Join(rerr, cerr)
}

func runStream(ctx context.Context, spec streamSpec, o options) (*report, error) {
	inputs, err := genStream(spec.scenario, o.seed, streamRecords)
	if err != nil {
		return nil, err
	}
	dues := make([][]time.Duration, len(inputs))
	for k, in := range inputs {
		dues[k] = spec.due(in)
	}
	dirs, err := newRoundDirs(spec.name, o.seed)
	if err != nil {
		return nil, err
	}
	defer dirs.remove()
	rep := newReport(endToEnd)

	// One restart follows every round, over the log and checkpoint the
	// round just wrote: the median then spans the whole run and every
	// replica, not one moment of the run or one replica's log.
	var setups []float64
	restartOnce := func() error {
		el, st, err := restart(ctx, spec, dirs.current())
		if err != nil {
			return fmt.Errorf("restart %d: %w", len(setups), err)
		}
		rep.check(st.ReplayedRecords == 0, "restart %d replayed %d records past the checkpoint", len(setups), st.ReplayedRecords)
		setups = append(setups, el.Seconds())
		return nil
	}

	// Rounds cycle through the replicas; every replica's output must
	// repeat bit for bit on its later rounds. emit[k][i] holds window i of
	// replica k's emit latency on every round that fed it.
	var rates, perDelay, errs, peaks []float64
	emit := make([][][]float64, len(inputs))
	bounds := newBoundTally(len(inputs))
	firsts := make([]uint64, len(inputs))
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for r := 0; r < streamMinRounds*len(inputs) || !bounds.covered() || len(setups) < minSetups || time.Now().Before(deadline); r++ {
		k := r % len(inputs)
		in := inputs[k]
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		out, err := streamRound(ctx, spec, in, dues[k], dirs.next())
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)
		dg, err := checkRound(rep, in, out)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(in.records())/out.wall.Seconds())
		if emit[k] == nil {
			emit[k] = make([][]float64, len(out.emit))
		}
		if len(out.emit) != len(emit[k]) {
			return nil, fmt.Errorf("round %d timed %d windows, replica %d first round %d", r, len(out.emit), k, len(emit[k]))
		}
		for i, v := range out.emit {
			emit[k][i] = append(emit[k][i], v)
		}
		var solve time.Duration
		var unknowns int
		for _, d := range out.deliveries {
			solve += d.w.SolveTime
			unknowns += d.w.Reconstruction.Stats().Unknowns
		}
		perDelay = append(perDelay, us(solve)/float64(unknowns))
		if err := restartOnce(); err != nil {
			return nil, err
		}
		if r >= len(inputs) {
			rep.check(dg == firsts[k], "round %d output digest %016x, replica %d first round %016x", r, dg, k, firsts[k])
			bounds.time(rep, k)
			continue
		}
		// A replica's first round: accuracy and soundness of its windows.
		firsts[k] = dg
		for _, d := range out.deliveries {
			e, err := domo.EstimateErrors(d.w.Trace, d.w.Reconstruction)
			if err != nil {
				return nil, err
			}
			errs = append(errs, e...)
		}
		if err := bounds.add(rep, spec, k, in, out); err != nil {
			return nil, err
		}
		bounds.time(rep, k)
	}
	d := newDigest()
	for _, f := range firsts {
		d.int(int64(f))
	}
	rep.digest = d.sum()
	rep.set("records_per_s", median(rates))
	rep.set("estimate_us_per_delay", median(perDelay))
	rep.set("estimate_mae_ms", mean(errs))
	bounds.set(rep)
	var windows [][]float64
	for _, w := range emit {
		windows = append(windows, w...)
	}
	p50, err := repeatPercentile(windows, 50)
	if err != nil {
		return nil, fmt.Errorf("emit latency: %w", err)
	}
	p90, err := repeatPercentile(windows, 90)
	if err != nil {
		return nil, fmt.Errorf("emit latency: %w", err)
	}
	rep.set("emit_p50_ms", p50)
	rep.set("emit_p90_ms", p90)
	rep.set("setup_s", median(setups))
	rep.set("peak_rss_mb", median(peaks))
	return rep, nil
}

// boundTally bounds every unknown of streamBoundWindows evenly spaced
// delivered windows of each replica's first round, the way an operator
// checks a stream's output after the fact. The windows' records come from
// the replica's whole input sanitized as one batch the way the stream
// sanitizes it (with counter forensics on stream-durable), so they carry
// the retrospective reset epochs. The bounds must hold the ground truth.
//
// The timing is spread over the run: every round bounds the windows of the
// replica it fed, and each window's time is the median of its timings.
type boundTally struct {
	windows [][]*domo.Trace // per replica
	solved  [][]int         // per replica and window
	times   [][][]float64   // seconds, per replica and window
	widths  []float64
}

func newBoundTally(replicas int) *boundTally {
	return &boundTally{
		windows: make([][]*domo.Trace, replicas),
		solved:  make([][]int, replicas),
		times:   make([][][]float64, replicas),
	}
}

// add prepares replica k's windows from its first round and checks their
// bounds against the ground truth.
func (b *boundTally) add(rep *report, spec streamSpec, k int, in *streamInput, out *roundOut) error {
	tr, err := domo.ReadWireTrace(bytes.NewReader(in.body))
	if err != nil {
		return err
	}
	if spec.sanitize {
		tr, _ = tr.SanitizeWith(domo.SanitizeOptions{Forensics: true})
	}
	b.times[k] = [][]float64{}
	var windows [][]*trace.Record
	for _, i := range sampleWindows(len(out.deliveries)) {
		windows = append(windows, out.deliveries[i].w.Trace.Internal().Records)
	}
	for _, wt := range windowTraces(tr.Internal(), windows) {
		w, err := domo.WrapTrace(wt)
		if err != nil {
			return err
		}
		rep.attempted++
		res, err := domo.Bounds(w, domo.Config{})
		if err != nil {
			rep.failed++
			rep.check(false, "window bounds: %v", err)
			continue
		}
		v, err := domo.BoundViolations(w, res, violationTol)
		if err != nil {
			return err
		}
		if v > 0 {
			rep.failed++
			rep.check(false, "%d bound violations in a window", v)
		}
		ws, err := domo.BoundWidths(w, res)
		if err != nil {
			return err
		}
		b.widths = append(b.widths, ws...)
		b.windows[k] = append(b.windows[k], w)
		b.solved[k] = append(b.solved[k], res.Stats().Solved)
		b.times[k] = append(b.times[k], nil)
	}
	return nil
}

// time bounds each of replica k's windows once.
func (b *boundTally) time(rep *report, k int) {
	for i, w := range b.windows[k] {
		rep.attempted++
		start := time.Now()
		res, err := domo.Bounds(w, domo.Config{})
		el := time.Since(start)
		if err != nil {
			rep.failed++
			rep.check(false, "window bounds: %v", err)
			continue
		}
		rep.check(res.Stats().Solved == b.solved[k][i], "replica %d window %d solved %d bounds, first %d", k, i, res.Stats().Solved, b.solved[k][i])
		b.times[k][i] = append(b.times[k][i], el.Seconds())
	}
}

// covered reports whether every replica's windows are prepared and timed.
func (b *boundTally) covered() bool {
	for _, ts := range b.times {
		if ts == nil {
			return false
		}
		for _, t := range ts {
			if len(t) == 0 {
				return false
			}
		}
	}
	return true
}

// windowTraces rebuilds each window from batch's copies of its records;
// a record the batch sanitizer quarantined is left out.
func windowTraces(batch *trace.Trace, windows [][]*trace.Record) []*trace.Trace {
	byID := make(map[trace.PacketID]*trace.Record, len(batch.Records))
	for _, r := range batch.Records {
		byID[r.ID] = r
	}
	var out []*trace.Trace
	for _, w := range windows {
		var recs []*trace.Record
		for _, r := range w {
			if br, ok := byID[r.ID]; ok {
				recs = append(recs, br)
			}
		}
		if len(recs) == 0 {
			continue
		}
		out = append(out, &trace.Trace{NumNodes: batch.NumNodes, Records: recs, Duration: recs[len(recs)-1].SinkArrival})
	}
	return out
}

// sampleWindows picks up to streamBoundWindows evenly spaced window
// positions, leaving out the tail window Close flushes.
func sampleWindows(n int) []int {
	n--
	if n <= 0 {
		return nil
	}
	k := min(n, streamBoundWindows)
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// set reports the summed median window times over the bounds they solved.
func (b *boundTally) set(rep *report) {
	var el float64
	var solved int
	for k, ts := range b.times {
		for i, t := range ts {
			el += median(t)
			solved += b.solved[k][i]
		}
	}
	rep.check(solved > 0, "no stream bounds solved")
	rep.set("bound_ms_per_bound", el*1e3/float64(max(solved, 1)))
	rep.set("bound_width_ms", mean(b.widths))
}
