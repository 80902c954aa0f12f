package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	domo "github.com/domo-net/domo"
	"github.com/domo-net/domo/internal/experiments"
	"github.com/domo-net/domo/internal/trace"
	"github.com/domo-net/domo/internal/wire"
)

// simulate builds one replica of a registered scenario.
func simulate(scenarioName string, base experiments.Scenario, seed int64, replica int) (*domo.Trace, error) {
	spec, ok := experiments.LookupScenario(scenarioName)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", scenarioName)
	}
	tr, err := domo.Simulate(spec.Build(base, seed, replica))
	if err != nil {
		return nil, fmt.Errorf("simulating %s replica %d: %w", scenarioName, replica, err)
	}
	return tr, nil
}

// streamInput is one wire stream cut into frames: body[:offs[0]] is the
// header and body[offs[i]:offs[i+1]] record i's frame.
type streamInput struct {
	numNodes int
	body     []byte
	offs     []int
	ids      []domo.PacketID
	arrivals []time.Duration
	// index maps a packet to its position in the stream.
	index map[domo.PacketID]int
}

func (in *streamInput) records() int { return len(in.ids) }

// genStream simulates streamReplicas independent networks of a registered
// scenario at streamNodes nodes and keeps the first n records of each, in
// sink-arrival order. Replicas are simulated GOMAXPROCS at a time, each
// into its own slot, so the inputs do not depend on the worker count.
func genStream(scenarioName string, seed int64, n int) ([]*streamInput, error) {
	base := experiments.Small()
	base.Duration = streamDuration
	out := make([]*streamInput, streamReplicas)
	errs := make([]error, streamReplicas)
	next := make(chan int, streamReplicas)
	for r := range out {
		next <- r
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				tr, err := simulate(scenarioName, base, seed, r)
				if err != nil {
					errs[r] = err
					continue
				}
				recs := tr.Internal().Records
				if len(recs) < n {
					errs[r] = fmt.Errorf("%s seed %d replica %d: %d records, want %d", scenarioName, seed, r, len(recs), n)
					continue
				}
				out[r] = encodeStream(tr.NumNodes(), recs[:n])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

func encodeStream(numNodes int, recs []*trace.Record) *streamInput {
	in := &streamInput{numNodes: numNodes, index: make(map[domo.PacketID]int, len(recs))}
	in.body = wire.AppendHeader(nil, wire.Header{NumNodes: numNodes, Duration: time.Duration(recs[len(recs)-1].SinkArrival)})
	in.offs = append(in.offs, len(in.body))
	var payload []byte
	for i, r := range recs {
		payload = wire.AppendRecord(payload[:0], r)
		in.body = wire.AppendFrame(in.body, payload)
		in.offs = append(in.offs, len(in.body))
		id := domo.PacketID{Source: domo.NodeID(r.ID.Source), Seq: r.ID.Seq}
		in.ids = append(in.ids, id)
		in.arrivals = append(in.arrivals, time.Duration(r.SinkArrival))
		in.index[id] = i
	}
	return in
}
