package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/bcast"
	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/tune"
)

const (
	// tracedRounds caps each traced phase, which bounds the per-rank
	// span rings and the per-call arrays the traced phases keep.
	tracedRounds = 1000
	// p2pSpanCap bounds the engine and transport spans kept in memory;
	// the totals they feed are accumulated for every call regardless.
	p2pSpanCap = 100000
)

// traced is the per-layer run. It measures, in order and each on its own
// share of the budget:
//
//  1. the untraced facade loop, for every counter (engine, buffer pool,
//     wire, Go runtime) and the untraced latency;
//  2. the facade loop with the program's span ring on, timing each
//     facade call around the collective span the ring records for it;
//  3. the same broadcasts issued straight into collective on a world the
//     benchmark boots, through a timed communicator and a timed transport;
//  4. a single goroutine copying the root's payloads into np-1 buffers.
func traced(wl workload, in *inputs, budget time.Duration, spansDir string, out *report) error {
	bufs := allocBufs(wl)
	timeout := budget + time.Minute
	topo, err := wl.topology()
	if err != nil {
		return err
	}

	cl, _, err := setup(wl, in, bufs, timeout)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	out.attempted += len(wl.sizes)
	m, err := measureFacade(cl, wl, in, bufs, budget*2/5, out)
	cl.Close()
	if err != nil {
		return err
	}

	facadeSpans := newSpanStore("facade", 2*tracedRounds*wl.np)
	bcastSelf, err := facadeTrace(wl, in, bufs, m.pred, m.barrier, budget/4, facadeSpans, out)
	if err != nil {
		return err
	}

	layerSpans := newSpanStore("layer", tracedRounds*wl.np)
	p2pSpans := newSpanStore("layer", p2pSpanCap)
	lt, err := layerTrace(wl, in, bufs, topo, m.pred, m.algs, budget*3/10, layerSpans, p2pSpans, out)
	if err != nil {
		return err
	}
	copyMBps := serialCopy(wl, in, bufs, budget/20)

	path := filepath.Join(spansDir, "spans-"+wl.name+".jsonl")
	n, err := writeSpans(path, facadeSpans, layerSpans, p2pSpans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	out.info("spans", fmt.Sprintf("%d written to %s (%d engine/transport spans beyond the in-memory cap not kept)", n, path, p2pSpans.dropped()))
	out.info("rounds", fmt.Sprintf("untraced %d, facade-traced %d, layer-traced %d", m.st.rounds, bcastSelf.rounds, lt.st.rounds))

	r := float64(m.st.rounds)
	d := func(get func(s *bcast.Snapshot) int64) float64 { return float64(get(&m.s1) - get(&m.s0)) }
	lr := float64(lt.st.rounds)

	out.metric("bcast.self_us", bcastSelf.us, "us")

	out.metric("collective.msgs_per_bcast", float64(lt.sum.msgs)/lr, "count")
	out.metric("collective.bytes_per_bcast", float64(lt.sum.bytes)/lr, "B")
	out.metric("collective.inter_node_bytes_per_bcast", float64(lt.sum.inter)/lr, "B")
	out.metric("collective.self_us", lt.collSelfUs, "us")

	out.metric("engine.send_us_per_bcast", float64(lt.sendNs)/lr/1e3, "us")
	out.metric("engine.recv_wait_us_per_bcast", float64(lt.recvNs)/lr/1e3, "us")
	out.metric("engine.ns_per_msg", float64(lt.sendNs+lt.recvNs)/float64(lt.sum.msgs), "ns")
	eager := d(func(s *bcast.Snapshot) int64 { return s.EagerSends }) - float64(m.st.barriers()*m.barrier)
	out.metric("engine.eager_sends_per_bcast", eager/r, "count")
	out.metric("engine.rdv_sends_per_bcast", d(func(s *bcast.Snapshot) int64 { return s.RdvSends })/r, "count")
	staged := d(func(s *bcast.Snapshot) int64 { return s.StagedBytes })
	out.metric("engine.staged_bytes_per_bcast", staged/r, "B")
	out.metric("engine.copied_bytes_per_bcast", (float64(m.want.bytes)+staged)/r, "B-computed")
	out.metric("engine.parks_per_bcast", d(func(s *bcast.Snapshot) int64 { return s.Parks })/r, "count")
	out.metric("engine.slot_waits_per_bcast", d(func(s *bcast.Snapshot) int64 { return s.SlotWaits })/r, "count")
	out.metric("engine.posted_queue_max", float64(m.s1.PostedQueueMax), "count")
	out.metric("engine.arrival_queue_max", float64(m.s1.ArrivalQueueMax), "count")

	gets := d(func(s *bcast.Snapshot) int64 { return poolSum(s, false) })
	out.metric("bufpool.gets_per_bcast", gets/r, "count")
	out.metric("bufpool.miss_ratio", ratio(d(func(s *bcast.Snapshot) int64 { return poolSum(s, true) }), gets), "ratio")
	out.metric("bufpool.oversize_gets_per_bcast", d(func(s *bcast.Snapshot) int64 { return s.OversizeGets })/r, "count")

	dgrams := d(func(s *bcast.Snapshot) int64 { return s.WireDatagramsSent })
	out.metric("transport.send_us_per_bcast", float64(lt.trans.sendNs.Load())/lr/1e3, "us")
	out.metric("transport.deliver_us_per_bcast", float64(lt.trans.deliverNs.Load())/lr/1e3, "us")
	out.metric("transport.datagrams_per_bcast", dgrams/r, "count")
	out.metric("transport.wire_bytes_per_payload_byte", d(func(s *bcast.Snapshot) int64 { return s.WireBytesSent })/float64(m.want.bytes), "ratio")
	out.metric("transport.retx_ratio", ratio(d(func(s *bcast.Snapshot) int64 { return s.WireRetransmits }), dgrams), "ratio")
	out.metric("transport.acks_per_bcast", d(func(s *bcast.Snapshot) int64 { return s.WireAcksSent })/r, "count")
	out.metric("transport.batched_writes_per_bcast", d(func(s *bcast.Snapshot) int64 { return s.WireBatchedWrites })/r, "count")
	out.metric("transport.srtt_max_us", float64(m.s1.WireSRTTMaxMicros), "us")
	out.metric("transport.cwnd_halvings", d(func(s *bcast.Snapshot) int64 { return s.WireCwndHalvings }), "count")

	out.metric("runtime.allocs_per_bcast", float64(m.st.mallocs)/r, "count")
	out.metric("runtime.gc_cycles_per_1k_bcasts", float64(m.st.gcs)*1000/r, "count")
	out.metric("baseline.serial_copy_MBps", copyMBps, "MB/s")
	untraced := p50Us([]phaseStats{m.st})
	out.metric("trace.overhead_pct", 100*(p50Us([]phaseStats{lt.st})-untraced)/untraced, "%")
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// poolSum totals the buffer pool's gets, or its misses, over all classes.
func poolSum(s *bcast.Snapshot, misses bool) int64 {
	var n int64
	for _, c := range s.BufPool {
		if misses {
			n += c.Misses
		} else {
			n += c.Gets
		}
	}
	return n
}

// facadeSelf is the facade's own time per call: the facade call span
// less the collective span the program recorded for the same call.
type facadeSelf struct {
	us     float64 // median over (broadcast, rank)
	rounds int
}

// facadeTrace runs the facade loop with the program's span ring on. Each
// rank's k-th broadcast span in the ring belongs to its k-th facade call,
// so the two spans of one call are paired by order.
func facadeTrace(wl workload, in *inputs, bufs [][][]byte, pred []traffic, barrierMsgs int64, budget time.Duration, store *spanStore, out *report) (facadeSelf, error) {
	// A phase of R rounds records 3R+2 spans per rank: a broadcast and two
	// barriers per round, the opening barrier and the stop barrier.
	ringCap := 3*tracedRounds + 2
	cl, _, err := setup(wl, in, bufs, budget+time.Minute, bcast.WithSpans(ringCap), bcast.TraceTraffic())
	if err != nil {
		return facadeSelf{}, fmt.Errorf("facade-traced set-up: %w", err)
	}
	defer cl.Close()
	out.attempted += len(wl.sizes)
	t0, _ := cl.Traffic()
	handle, variant := in.draw(tracedRounds, false)
	p := newPhase(wl.np, budget, wl.sizes, handle, variant, true)
	runtime.GC()
	runErr := facadeRun(cl, wl, in, bufs, p)
	st := p.stats(runErr)
	in.commit(handle, st.rounds)
	out.attempted += st.rounds
	out.failed += st.bad
	if runErr != nil {
		out.attempted++
		out.failed++
		return facadeSelf{}, fmt.Errorf("facade-traced phase: %w", runErr)
	}
	t1, _ := cl.Traffic()
	want := expected(pred, handle, st.rounds)
	out.check("facade-traced messages = schedule", t1.Messages-t0.Messages-st.barriers()*barrierMsgs, want.msgs)
	out.check("facade-traced bytes = schedule", t1.Bytes-t0.Bytes, want.bytes)
	out.check("facade-traced inter-node bytes = schedule", t1.InterBytes-t0.InterBytes, want.inter)

	ring := make([][]metrics.Span, wl.np)
	for _, s := range cl.Metrics().Spans {
		if s.Op == "bcast" && !s.Start.Before(p.base) {
			ring[s.Rank] = append(ring[s.Rank], s)
		}
	}
	selfs := make([]float64, 0, st.rounds*wl.np)
	var outside int64
	for r := range ring {
		if len(ring[r]) != st.rounds {
			return facadeSelf{}, fmt.Errorf("rank %d's span ring kept %d broadcast spans, the phase ran %d", r, len(ring[r]), st.rounds)
		}
		for i, cs := range ring[r] {
			k := 2 * (i*wl.np + r)
			fStart, fDur := p.perRank[k], p.perRank[k+1]
			cStart, cDur := int64(cs.Start.Sub(p.base)), int64(cs.Dur)
			if cStart < fStart || cStart+cDur > fStart+fDur {
				outside++
			}
			selfs = append(selfs, float64(fDur-cDur)/1e3)
			store.add(span{id: int64(i), rank: int32(r), layer: layerBcast, op: opCall, start: fStart, dur: fDur})
			store.add(span{id: int64(i), rank: int32(r), layer: layerCollective, op: opCall, start: cStart, dur: cDur})
		}
	}
	out.check("collective spans outside their facade call", outside, 0)
	return facadeSelf{us: median(selfs), rounds: st.rounds}, nil
}

// layerTraceResult is the traced layer phase, summed over ranks.
type layerTraceResult struct {
	st             phaseStats
	sum            traffic
	sendNs, recvNs int64
	collSelfUs     float64 // median over (broadcast, rank) of collective span less engine time
	trans          *timedTransport
}

// layerTrace issues the workload's broadcasts straight into collective —
// Plan.Execute for persistent handles, Broadcast per call — on an engine
// world the benchmark boots with the workload's placement, executor and
// transport. Every point-to-point call goes through timedComm and every
// wire message through timedTransport. Barriers use the bare
// communicator, so the timed totals belong to the broadcasts alone.
func layerTrace(wl workload, in *inputs, bufs [][][]byte, topo *topology.Map, pred []traffic, algs []string, budget time.Duration, collSpans, p2pSpans *spanStore, out *report) (*layerTraceResult, error) {
	handle, variant := in.draw(tracedRounds, false)
	p := newPhase(wl.np, budget, wl.sizes, handle, variant, true)
	runtime.GC()
	p.start()
	inner, err := transport.New(wl.transport, wl.np)
	if err != nil {
		return nil, err
	}
	tr := &timedTransport{Transport: inner, ph: p, spans: p2pSpans}
	defer tr.Close()
	exec := engine.Goroutine
	if wl.pooled {
		exec = engine.Pooled
	}
	w, err := engine.NewWorld(engine.Options{
		NP: wl.np, Topology: topo, Executor: exec, Transport: tr,
		Metrics: metrics.New(wl.np, 0), Timeout: budget + time.Minute,
	})
	if err != nil {
		return nil, err
	}
	stats := make([]*p2pStats, wl.np)
	for r := range stats {
		stats[r] = &p2pStats{rank: r, spans: p2pSpans, base: p.base, topology: topo}
	}
	engNs := make([]int64, len(handle)*wl.np)
	programs := make([]*sched.Program, len(wl.sizes))
	opts := collective.Options{Tuner: tune.MPICH3{Tuned: true}}
	runErr := w.Run(func(c mpi.Comm) error {
		r := c.Rank()
		st := stats[r]
		tc := &timedComm{inner: c, st: st}
		mine := bufs[r]
		plans := make([]*collective.Plan, len(mine))
		for h := range plans {
			pl, err := collective.NewPlan(tc, len(mine[h]), 0, opts)
			if err != nil {
				return err
			}
			if got := pl.Decision().Algorithm; got != algs[h] {
				return fmt.Errorf("collective resolved %q for %d bytes, the facade %q", got, len(mine[h]), algs[h])
			}
			plans[h] = pl
		}
		if r == 0 {
			for h, pl := range plans {
				programs[h] = pl.Program()
			}
		}
		call := func(i, h int) error {
			st.round = int64(i)
			before := st.busyNs()
			var err error
			if wl.persistent {
				err = plans[h].Execute(tc, mine[h])
			} else {
				err = collective.Broadcast(tc, mine[h], 0, opts)
			}
			engNs[i*wl.np+r] = st.busyNs() - before
			return err
		}
		return p.runRank(r, in.want,
			func(h int) []byte { return mine[h] },
			func() error { return collective.Barrier(c) },
			call)
	})
	res := &layerTraceResult{st: p.stats(runErr), trans: tr}
	in.commit(handle, res.st.rounds)
	out.attempted += res.st.rounds
	out.failed += res.st.bad
	if runErr != nil {
		out.attempted++
		out.failed++
		return nil, fmt.Errorf("layer-traced phase: %w", runErr)
	}
	if res.st.rounds == 0 {
		return nil, fmt.Errorf("layer-traced phase completed no broadcast")
	}

	for h, pr := range programs {
		if pr == nil {
			return nil, fmt.Errorf("plan for %d bytes has no static schedule", wl.sizes[h])
		}
		got := scheduleTraffic(pr, topo)
		out.check(fmt.Sprintf("Plan.Program() messages for %d B = prediction", wl.sizes[h]), got.msgs, pred[h].msgs)
		out.check(fmt.Sprintf("Plan.Program() bytes for %d B = prediction", wl.sizes[h]), got.bytes, pred[h].bytes)
	}
	for _, st := range stats {
		res.sum.add(traffic{msgs: st.msgs, bytes: st.bytes, inter: st.inter})
		res.sendNs += st.sendNs
		res.recvNs += st.recvNs
	}
	want := expected(pred, handle, res.st.rounds)
	out.check("layer-traced messages = schedule", res.sum.msgs, want.msgs)
	out.check("layer-traced bytes = schedule", res.sum.bytes, want.bytes)
	out.check("layer-traced inter-node bytes = schedule", res.sum.inter, want.inter)

	selfs := make([]float64, 0, res.st.rounds*wl.np)
	for i := 0; i < res.st.rounds; i++ {
		for r := 0; r < wl.np; r++ {
			k := i*wl.np + r
			start, dur := p.perRank[2*k], p.perRank[2*k+1]
			selfs = append(selfs, float64(dur-engNs[k])/1e3)
			collSpans.add(span{id: int64(i), rank: int32(r), layer: layerCollective, op: opCall, start: start, dur: dur})
		}
	}
	res.collSelfUs = median(selfs)
	return res, nil
}

// serialCopy is the plain single-threaded version of the workload's
// problem: one goroutine copies the root's payload, in the seeded
// order, into np-1 of the workload's buffers. It reports payload bytes
// delivered per second on the same basis as bcast_MBps.
func serialCopy(wl workload, in *inputs, bufs [][][]byte, budget time.Duration) float64 {
	handle, variant := in.draw(maxRounds(budget), false)
	var moved int64
	t0 := time.Now()
	for i := 0; i < len(handle) && (i == 0 || time.Since(t0) < budget); i++ {
		src := in.want[handle[i]][variant[i]]
		for r := 1; r < wl.np; r++ {
			copy(bufs[r][handle[i]], src)
		}
		moved += int64(len(src))
	}
	return float64(moved) / time.Since(t0).Seconds() / (1 << 20)
}
