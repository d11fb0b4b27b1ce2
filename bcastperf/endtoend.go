package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/bcast"
)

const (
	// clusters is how many clusters one run boots and measures in turn,
	// for an equal share of the budget each. A boot settles the ranks,
	// pools and sockets into a state that lasts the cluster's life, and
	// the clusters of one run differ in rate (see NOTES.json), so a run
	// reports medians over its clusters; each boot is also one set-up
	// sample.
	clusters = 9
	// maxRate bounds the rounds drawn per second of budget; it sits well
	// above any workload's rate so the time budget ends every phase.
	maxRate = 5000
)

// endToEnd is the untraced run: clusters booted and timed one after
// another, each running a closed loop through the facade.
func endToEnd(wl workload, in *inputs, budget time.Duration, out *report) error {
	bufs := allocBufs(wl)
	var setups []float64
	var phases []phaseStats
	var algs []string
	for k := 0; k < clusters; k++ {
		cl, d, err := setup(wl, in, bufs, budget+time.Minute)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		out.attempted += len(wl.sizes)
		m, err := measureFacade(cl, wl, in, bufs, budget/clusters, out)
		cl.Close()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		phases = append(phases, m.st)
		algs = m.algs
	}
	var all phaseStats
	var steal, perCluster []float64
	for _, st := range phases {
		all.rounds += st.rounds
		all.latUs = append(all.latUs, st.latUs...)
		all.busy += st.busy
		all.payload += st.payload
		all.mallocs += st.mallocs
		for _, w := range st.windows {
			steal = append(steal, w.steal)
		}
		perCluster = append(perCluster, MBps([]phaseStats{st}))
	}
	slices.Sort(steal)
	out.info("decision", fmt.Sprintf("%v", algs))
	out.info("set-up runs", fmt.Sprintf("one per cluster, median reported (seconds: %v)", roundAll(setups, 4)))
	out.info("samples", fmt.Sprintf("%d broadcasts on %d clusters in %d one-second windows at %.1f-%.1f%% CPU steal (median %.1f%%); p50 and rates are read at zero steal from a Theil-Sen fit over the windows, median over the clusters",
		all.rounds, clusters, len(steal), 100*steal[0], 100*steal[len(steal)-1], 100*median(steal)))
	out.info("bcast_MBps per cluster", fmt.Sprintf("%v", roundAll(perCluster, 1)))
	out.info("over all rounds", fmt.Sprintf("p50 %g us, %g MB/s, %g broadcasts/s of broadcast time, steal included",
		median(all.latUs), float64(all.payload)/all.busy.Seconds()/(1<<20), float64(all.rounds)/all.busy.Seconds()))
	// Printed, not gated: on a shared host the tail follows the
	// neighbours' CPU steal more than the program (see NOTES.json).
	pct, q := tailPercentile(all.latUs)
	out.info("bcast_p99_us", fmt.Sprintf("%g us at p%.2f of %d samples, steal included", pct, 100*q, len(all.latUs)))

	out.metric("bcast_p50_us", p50Us(phases), "us")
	out.metric("bcast_MBps", MBps(phases), "MB/s")
	out.metric("bcasts_per_s", perSecond(phases), "1/s")
	out.metric("setup_s", median(setups), "s")
	// Not a gated metric: the persistent path allocates next to nothing
	// per broadcast, so its relative run-to-run spread is unbounded. The
	// traced run reports it as runtime.allocs_per_bcast.
	out.info("allocs_per_bcast", fmt.Sprintf("%g heap objects per broadcast over %d broadcasts", float64(all.mallocs)/float64(all.rounds), all.rounds))
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	out.metric("peak_rss_mib", rss, "MiB")
	return nil
}

// facadeMeasurement is one timed facade phase with the counters around it.
type facadeMeasurement struct {
	st      phaseStats
	algs    []string
	pred    []traffic // per handle, from its resolved schedule
	want    traffic   // the prediction for the rounds that ran
	barrier int64     // messages per barrier
	s0, s1  bcast.Snapshot
}

// measureFacade runs one timed closed loop on cl, records the engine
// counters and allocation statistics around it, and checks the engine's
// message and staged-byte counts against the resolved schedules.
func measureFacade(cl *bcast.Cluster, wl workload, in *inputs, bufs [][][]byte, budget time.Duration, out *report) (*facadeMeasurement, error) {
	topo, err := wl.topology()
	if err != nil {
		return nil, err
	}
	m := &facadeMeasurement{}
	for _, n := range wl.sizes {
		m.algs = append(m.algs, cl.Decision(n).Algorithm)
	}
	decide := func(n int) (string, int) {
		d := cl.Decision(n)
		return d.Algorithm, d.SegSize
	}
	if m.pred, err = predict(wl, topo, decide); err != nil {
		return nil, err
	}
	if m.barrier, err = barrierMsgs(cl); err != nil {
		return nil, err
	}
	handle, variant := in.draw(maxRounds(budget), false)
	p := newPhase(wl.np, budget, wl.sizes, handle, variant, false)
	// Collect the garbage of the set-up runs now rather than while timing.
	runtime.GC()
	m.s0 = cl.Metrics()
	runErr := facadeRun(cl, wl, in, bufs, p)
	m.s1 = cl.Metrics()
	m.st = p.stats(runErr)
	in.commit(handle, m.st.rounds)
	out.attempted += m.st.rounds
	out.failed += m.st.bad
	if runErr != nil {
		out.attempted++
		out.failed++
		return nil, fmt.Errorf("timed phase: %w", runErr)
	}
	if m.st.rounds == 0 {
		return nil, fmt.Errorf("timed phase completed no broadcast")
	}
	m.want = expected(m.pred, handle, m.st.rounds)
	gotMsgs := m.s1.EagerSends + m.s1.RdvSends - m.s0.EagerSends - m.s0.RdvSends - m.st.barriers()*m.barrier
	out.check("engine messages = schedule", gotMsgs, m.want.msgs)
	// Every eager-sized message is staged: a round's barriers drain the
	// queues, and within one broadcast no sender reaches the engine's
	// window of 64 unreceived eager messages at one receiver, beyond
	// which a send would bypass staging.
	out.check("engine staged bytes = schedule's eager bytes", m.s1.StagedBytes-m.s0.StagedBytes, m.want.eagerBytes)
	return m, nil
}

// maxRounds sizes a phase's drawn rounds to its budget.
func maxRounds(budget time.Duration) int {
	return int(budget.Seconds()*maxRate) + 1
}
