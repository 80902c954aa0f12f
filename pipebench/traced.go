package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	domo "github.com/domo-net/domo"
	"github.com/domo-net/domo/internal/core"
	"github.com/domo-net/domo/internal/stream"
	"github.com/domo-net/domo/internal/trace"
	"github.com/domo-net/domo/internal/wal"
	"github.com/domo-net/domo/internal/wire"
)

// The traced runs drive each layer through its own exported functions, in
// the order the public API calls them, with a span around every call. The
// facade's zero Config maps to the zero core.Config, so the layer calls
// reproduce the untraced run's outputs bit for bit; the runs check that.

// newLayerReport starts a per-layer report with every metric at zero: a
// layer the workload bypasses reports zero.
func newLayerReport() *report {
	rep := newReport(perLayer)
	for _, d := range perLayer {
		rep.set(d.name, 0)
	}
	return rep
}

// setSelf reports each layer's self time per round, over the spans
// directly under the given round roots, and the harness figures.
func setSelf(rep *report, spans []span, roots []int, untraced []float64) {
	isRoot := map[int]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}
	self := selfTimes(spans)
	perLayerSelf := map[string]time.Duration{}
	var traced []float64
	for i, s := range spans {
		switch {
		case isRoot[i]:
			perLayerSelf["harness"] += self[i]
			traced = append(traced, ms(s.End-s.Start))
		case isRoot[s.Parent]:
			perLayerSelf[layer(s.Name)] += self[i]
		}
	}
	rounds := float64(len(roots))
	var ledger []string
	for _, l := range []string{"wire", "trace", "wal", "stream", "core", "harness"} {
		v := ms(perLayerSelf[l]) / rounds
		rep.set(l+".self_ms", v)
		ledger = append(ledger, fmt.Sprintf("%s=%.3f", l, v))
	}
	rep.set("harness.untraced_ms", median(untraced))
	rep.set("harness.traced_ms", median(traced))
	rep.set("harness.trace_overhead_ms", median(traced)-median(untraced))
	rep.set("harness.spans", float64(len(spans)))
	fmt.Fprintf(os.Stderr, "self ms per round on the blocking path: %s; traced %.3f, untraced %.3f\n",
		strings.Join(ledger, " "), median(traced), median(untraced))
}

func setGC(rep *report, gc *gcWatch) {
	cycles, p99 := gc.stop()
	rep.set("runtime.gc_cycles", float64(cycles))
	rep.set("runtime.gc_pause_p99_us", us(p99))
}

// setPercentiles sets <name>_p50<suffix> and <name>_p99<suffix>; a sample
// too small for a p99 reports zero for both.
func setPercentiles(rep *report, name, suffix string, values []float64) {
	p99, err := tailPercentile(values, 99)
	if err != nil {
		return
	}
	p50, _ := percentile(values, 50)
	rep.set(name+"_p50"+suffix, p50)
	rep.set(name+"_p99"+suffix, p99)
}

// coreTally runs the core layer's calls under spans and accumulates their
// counters.
type coreTally struct {
	windows, unknowns, iterations, pruned, warm, retried, degraded int
	allocBytes, allocs                                             uint64
	windowMS                                                       []float64
	boundAllocBytes                                                uint64
	solved, propagation, simplex                                   int
	constraints                                                    int
}

func (c *coreTally) estimate(t *tracer, parent, window int, ds *core.Dataset) (*core.Estimates, error) {
	var est *core.Estimates
	var err error
	a := startAlloc()
	t.call("core.estimate", parent, window, func() { est, err = core.Estimate(ds) })
	b, n := a.stop()
	if err != nil {
		return nil, err
	}
	c.allocBytes += b
	c.allocs += n
	c.unknowns += est.Stats.Unknowns
	c.windows += est.Stats.Windows
	c.pruned += est.Stats.PrunedRows
	c.warm += est.Stats.WarmStartedWindows
	c.retried += est.Stats.RetriedWindows
	c.degraded += est.Stats.DegradedWindows
	for _, w := range est.Stats.PerWindow {
		c.iterations += w.Iterations
		c.windowMS = append(c.windowMS, ms(w.SolveTime))
	}
	return est, nil
}

func (c *coreTally) dataset(t *tracer, parent, window int, tr *trace.Trace) (*core.Dataset, error) {
	var ds *core.Dataset
	var err error
	t.call("core.dataset", parent, window, func() { ds, err = core.NewDataset(tr, core.Config{}) })
	if err != nil {
		return nil, err
	}
	c.constraints += ds.NumConstraints()
	return ds, nil
}

func (c *coreTally) bounds(t *tracer, parent, window int, ds *core.Dataset, opts core.BoundOptions) (*core.Bounds, error) {
	var b *core.Bounds
	var err error
	a := startAlloc()
	t.call("core.bounds", parent, window, func() { b, err = core.ComputeBounds(ds, opts) })
	bytes, _ := a.stop()
	if err != nil {
		return nil, err
	}
	c.boundAllocBytes += bytes
	c.solved += b.Stats.Solved
	c.propagation += b.Stats.Propagation
	c.simplex += b.Stats.Simplex
	return b, nil
}

// set reports the core metrics; spans gives the layer's call durations.
// Estimate figures are per replay (the tally covers replays of them);
// bound figures cover the one bound pass.
func (c *coreTally) set(rep *report, spans []span, replays int) {
	p := float64(replays)
	sum := func(name string) float64 {
		var v float64
		for _, d := range durations(spans, name) {
			v += d
		}
		return v / 1000 // ms
	}
	rep.set("core.dataset_ms", sum("core.dataset")/p)
	if c.windows > 0 {
		rep.set("core.dataset_us_per_window", sum("core.dataset")*1000/float64(c.windows))
		rep.set("core.estimate_allocs_per_window", float64(c.allocs)/float64(c.windows))
	}
	rep.set("core.constraints", float64(c.constraints)/p)
	rep.set("core.estimate_ms", sum("core.estimate")/p)
	setPercentiles(rep, "core.window_estimate", "_ms", c.windowMS)
	rep.set("core.admm_iterations", float64(c.iterations)/p)
	rep.set("core.pruned_rows", float64(c.pruned)/p)
	rep.set("core.warm_started_windows", float64(c.warm)/p)
	rep.set("core.retried_windows", float64(c.retried)/p)
	rep.set("core.degraded_windows", float64(c.degraded)/p)
	if c.unknowns > 0 {
		rep.set("core.estimate_alloc_bytes_per_delay", float64(c.allocBytes)/float64(c.unknowns))
	}
	rep.set("core.bounds_ms", sum("core.bounds"))
	rep.set("core.bounds_solved", float64(c.solved))
	rep.set("core.bounds_propagation", float64(c.propagation))
	rep.set("core.bounds_simplex", float64(c.simplex))
	if c.solved > 0 {
		rep.set("core.bounds_alloc_bytes_per_bound", float64(c.boundAllocBytes)/float64(c.solved))
	}
}

func sumOf(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

// setSanitize reports the sanitize layer's counts.
func setSanitize(rep *report, san *trace.SanitizeReport) {
	if san.Input == 0 {
		return
	}
	rep.set("trace.quarantined", float64(san.Quarantined))
	rep.set("trace.epoch_bumps", float64(san.EpochBumps))
	rep.set("trace.admit_ratio", float64(san.Kept)/float64(san.Input))
}

// engineOut is one traced round through the engine alone.
type engineOut struct {
	results []*stream.WindowResult
	emit    []float64 // ms, the tail window excluded
	stats   stream.Stats
	lag     time.Duration // engine lag once the last record was pushed
	san     *trace.SanitizeReport
	syncs   int
}

// engineRound feeds the input once through the layers the facade stacks:
// wire decode, WAL append (and sync, under fsync always), per-record
// sanitize, engine push; a consumer checkpoints delivered windows.
func engineRound(ctx context.Context, spec streamSpec, in *streamInput, due []time.Duration, dir string, t *tracer) (*engineOut, int, error) {
	root := t.begin("harness.round", -1, -1)
	var log *wal.WAL
	var err error
	t.call("wal.open", root, -1, func() { log, err = wal.Open(dir, wal.Options{Sync: wal.SyncOff}) })
	if err != nil {
		return nil, root, err
	}
	defer log.Close()
	eng, err := stream.Open(ctx, stream.Config{NumNodes: in.numNodes})
	if err != nil {
		return nil, root, err
	}
	var san *trace.Sanitizer
	if spec.sanitize {
		san = trace.NewSanitizer(in.numNodes, trace.SanitizeOptions{Forensics: true})
	}
	ckpt := filepath.Join(dir, "checkpoint.json")
	start := time.Now()
	out := &engineOut{}
	var arrived []time.Duration
	consumed := make(chan error, 1)
	go func() {
		var cerr error
		var last *stream.WindowResult
		save := func(res *stream.WindowResult) {
			cp := wal.Checkpoint{Cursor: res.Cursor, NextWindow: res.Index + 1, SeqBase: res.SeqEnd}
			t.call("wal.checkpoint", -1, res.Index, func() { cerr = wal.SaveCheckpoint(ckpt, cp) })
		}
		for res := range eng.Results() {
			arrived = append(arrived, time.Since(start))
			out.results = append(out.results, res)
			if spec.checkpointEach && res.Err == nil && cerr == nil {
				save(res)
			}
			last = res
		}
		if !spec.checkpointEach && last != nil && cerr == nil {
			save(last)
		}
		consumed <- cerr
	}()

	rd, err := wire.NewReader(bytes.NewReader(in.body))
	if err != nil {
		eng.Close()
		return nil, root, err
	}
	n := in.records()
	ref := due
	if spec.closedLoop {
		ref = make([]time.Duration, n)
	}
	tick := time.NewTicker(pacerTick)
	defer tick.Stop()
	batchEnd := 0
	var perr error
	for i := 0; i < n && perr == nil; i++ {
		for !spec.closedLoop && i >= batchEnd {
			if batchEnd = dueBy(due, i, time.Since(start)); batchEnd == i {
				<-tick.C
			}
		}
		if spec.closedLoop {
			ref[i] = time.Since(start)
		}
		var rec *trace.Record
		t.call("wire.decode", root, -1, func() { rec, perr = rd.Next() })
		if perr != nil {
			break
		}
		var seq uint64
		t.call("wal.append", root, -1, func() { seq, perr = log.Append(rd.Raw()) })
		if perr == nil && spec.fsync == "always" {
			t.call("wal.sync", root, -1, func() { perr = log.Sync() })
			out.syncs++
		}
		if perr != nil {
			break
		}
		admitted := true
		if san != nil {
			t.call("trace.sanitize", root, -1, func() { _, admitted = san.Admit(rec) })
		}
		if admitted {
			t.call("stream.push", root, -1, func() { perr = eng.PushSeq(rec, seq) })
		}
	}
	out.lag = eng.Stats().Lag
	t.call("stream.drain", root, -1, func() {
		perr = errors.Join(perr, eng.Close())
		perr = errors.Join(perr, <-consumed)
	})
	t.end(root)
	if perr != nil {
		return nil, root, perr
	}
	out.stats = eng.Stats()
	if san != nil {
		out.san = san.Report()
	}
	for k, res := range out.results[:max(len(out.results)-1, 0)] {
		last := -1
		for _, r := range res.Trace.Records {
			last = max(last, in.index[domo.PacketID{Source: domo.NodeID(r.ID.Source), Seq: r.ID.Seq}])
		}
		if last < 0 {
			return nil, root, fmt.Errorf("window %d is empty", k)
		}
		out.emit = append(out.emit, ms(arrived[k]-ref[last]))
	}
	return out, root, nil
}

func traceStream(ctx context.Context, spec streamSpec, o options) (*report, error) {
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
	rep := newLayerReport()

	// The untraced reference: one facade round per replica, as runStream
	// makes them.
	var untraced, facadeEmit, late []float64
	want := make([]uint64, len(inputs))
	for k, in := range inputs {
		out, err := streamRound(ctx, spec, in, dues[k], dirs.next())
		if err != nil {
			return nil, fmt.Errorf("facade round %d: %w", k, err)
		}
		if want[k], err = checkRound(rep, in, out); err != nil {
			return nil, err
		}
		untraced = append(untraced, ms(out.wall))
		facadeEmit = append(facadeEmit, out.emit...)
		for _, l := range out.late {
			late = append(late, ms(l))
		}
	}

	// The same inputs, layer by layer.
	t := newTracer()
	gc := startGC()
	var roots []int
	var engEmit, lags []float64
	firsts := make([]*engineOut, len(inputs))
	var fed, syncs, windows, failed, queueMax int
	san := &trace.SanitizeReport{ByReason: map[trace.QuarantineReason]int{}}
	// Every replica once, then until the emit sample is full: spans are
	// kept per record, so the traced run stops there rather than at the
	// deadline.
	for r := 0; r < len(inputs) || len(engEmit) < minWindows; r++ {
		k := r % len(inputs)
		in := inputs[k]
		n := in.records()
		out, root, err := engineRound(ctx, spec, in, dues[k], dirs.next(), t)
		if err != nil {
			return nil, fmt.Errorf("engine round %d: %w", r, err)
		}
		roots = append(roots, root)
		if r < len(inputs) {
			firsts[k] = out
			if out.san != nil {
				san.Merge(out.san)
			}
		}
		rep.attempted += n
		fed += n
		st := out.stats
		quarantined := 0
		if out.san != nil {
			quarantined = out.san.Quarantined
		}
		lost := n - int(st.Solved) - quarantined
		rep.failed += max(lost, 0) + int(st.WindowsFailed)
		rep.check(lost == 0 && st.Dropped == 0, "engine round %d: %d records unaccounted, %d dropped", r, lost, st.Dropped)
		rep.check(st.WindowsFailed == 0, "engine round %d: %d windows failed", r, st.WindowsFailed)
		d := newDigest()
		for _, res := range out.results {
			if res.Err == nil {
				if err := d.window(res.Index, res.Trace.Records, res.Est.Arrivals); err != nil {
					return nil, err
				}
			}
		}
		rep.check(d.sum() == want[k], "engine round %d: windows differ from the facade's", r)
		engEmit = append(engEmit, out.emit...)
		lags = append(lags, ms(out.lag))
		syncs += out.syncs
		windows += int(st.Windows)
		failed += int(st.WindowsFailed)
		queueMax = max(queueMax, st.QueueMax)
	}
	rounds := len(roots)
	setGC(rep, gc)

	// Core, window by window: each replica's first engine round rebuilt
	// and re-estimated, as often as the per-window sample needs; every
	// window must match the engine's estimate bit for bit.
	var tally coreTally
	var replays int
	for ; replays < 1 || len(tally.windowMS) < minWindows; replays++ {
		replay := t.begin("harness.core-replay", -1, -1)
		for _, first := range firsts {
			for _, res := range first.results {
				ds, err := tally.dataset(t, replay, res.Index, res.Trace)
				if err != nil {
					return nil, err
				}
				est, err := tally.estimate(t, replay, res.Index, ds)
				if err != nil {
					return nil, err
				}
				a, b := newDigest(), newDigest()
				if err := a.window(0, res.Trace.Records, est.Arrivals); err != nil {
					return nil, err
				}
				if err := b.window(0, res.Trace.Records, res.Est.Arrivals); err != nil {
					return nil, err
				}
				rep.check(a.sum() == b.sum(), "window %d: core.Estimate differs from the stream's estimate", res.Index)
			}
		}
		t.end(replay)
	}
	// Bounds over the sampled windows of each replica's first round, as
	// runStream computes them.
	bounds := t.begin("harness.bounds", -1, -1)
	for k, in := range inputs {
		tr, err := wire.ReadTrace(bytes.NewReader(in.body))
		if err != nil {
			return nil, err
		}
		if spec.sanitize {
			tr, _ = tr.Sanitize(trace.SanitizeOptions{Forensics: true})
		}
		var windows [][]*trace.Record
		for _, i := range sampleWindows(len(firsts[k].results)) {
			windows = append(windows, firsts[k].results[i].Trace.Records)
		}
		for _, wt := range windowTraces(tr, windows) {
			ds, err := core.NewDataset(wt, core.Config{})
			if err != nil {
				return nil, err
			}
			if _, err := tally.bounds(t, bounds, -1, ds, core.BoundOptions{}); err != nil {
				return nil, err
			}
		}
	}
	t.end(bounds)

	// The restart path over the last round's log: open, then replay.
	var log *wal.WAL
	t.call("wal.open", -1, -1, func() { log, err = wal.Open(dirs.current(), wal.Options{}) })
	if err != nil {
		return nil, err
	}
	var entries int
	t.call("wal.replay", -1, -1, func() {
		err = log.Replay(0, func(_ uint64, payload []byte) error {
			entries++
			_, derr := wire.DecodeRecord(payload)
			return derr
		})
	})
	log.Close()
	if err != nil {
		return nil, err
	}
	last := inputs[(rounds-1)%len(inputs)]
	rep.check(entries == last.records(), "WAL replay read %d entries, fed %d", entries, last.records())

	spans := t.snapshot()
	d := newDigest()
	for _, w := range want {
		d.int(int64(w))
	}
	rep.digest = d.sum()
	var wireBytes, records int
	for _, in := range inputs {
		wireBytes += len(in.body) - in.offs[0]
		records += in.records()
	}
	rep.set("wire.decode_us_per_record", mean(durations(spans, "wire.decode")))
	rep.set("wire.bytes_per_record", float64(wireBytes)/float64(records))
	if spec.sanitize {
		rep.set("trace.sanitize_us_per_record", mean(durations(spans, "trace.sanitize")))
		setSanitize(rep, san)
	}
	setPercentiles(rep, "wal.append_us", "", durations(spans, "wal.append"))
	setPercentiles(rep, "wal.sync_us", "", durations(spans, "wal.sync"))
	rep.set("wal.syncs_per_record", float64(syncs)/float64(fed))
	opens := durations(spans, "wal.open")
	rep.set("wal.open_ms", opens[len(opens)-1]/1000)
	rep.set("wal.replay_us_per_record", sumOf(durations(spans, "wal.replay"))/float64(entries))
	setPercentiles(rep, "stream.emit", "_ms", engEmit)
	rep.set("stream.queue_max", float64(queueMax))
	rep.set("stream.lag_ms", median(lags))
	rep.set("stream.windows", float64(windows)/float64(rounds))
	rep.set("stream.windows_failed", float64(failed))
	rep.set("domo.stream_overhead_us_per_window", (median(facadeEmit)-median(engEmit))*1000)
	tally.set(rep, spans, replays)
	if len(late) > 0 {
		p, _ := percentile(late, 99)
		rep.set("gen.late_p99_ms", p)
	}
	setSelf(rep, spans, roots, untraced)
	return rep, t.write(o.spans)
}
