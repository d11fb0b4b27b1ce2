package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/bcast"
)

// facadeOptions configures a cluster for wl through the public API.
// Selection is pinned to the paper's tuned MPICH3 dispatch: the facade's
// own default is the native ring.
func facadeOptions(wl workload, timeout time.Duration, extra ...bcast.Option) []bcast.Option {
	opts := []bcast.Option{
		bcast.Procs(wl.np),
		bcast.Placement(wl.placement),
		bcast.Tuner(bcast.MPICH3Tuner(true)),
		bcast.WithTransport(wl.transport),
		bcast.Timeout(timeout),
	}
	if wl.pooled {
		opts = append(opts, bcast.ExecPooled(0))
	}
	return append(opts, extra...)
}

// facadeRun executes p's rounds in one Run of cl: per-call Comm.Bcast, or
// Start/Wait on persistent handles initialised at the top of the Run.
func facadeRun(cl *bcast.Cluster, wl workload, in *inputs, bufs [][][]byte, p *phase) error {
	ctx := context.Background()
	p.start()
	return cl.Run(ctx, func(c bcast.Comm) error {
		mine := bufs[c.Rank()]
		call := func(_, h int) error { return c.Bcast(ctx, mine[h], 0) }
		if wl.persistent {
			hs := make([]*bcast.Persistent, len(mine))
			for h := range hs {
				var err error
				if hs[h], err = c.BcastInit(mine[h], 0); err != nil {
					return err
				}
			}
			call = func(_, h int) error {
				if err := hs[h].Start(); err != nil {
					return err
				}
				return hs[h].Wait(ctx)
			}
		}
		return p.runRank(c.Rank(), in.want,
			func(h int) []byte { return mine[h] },
			func() error { return c.Barrier(ctx) },
			call)
	})
}

// setup boots a cluster and completes its first warm round — one
// broadcast on every handle — and returns the time both took.
func setup(wl workload, in *inputs, bufs [][][]byte, timeout time.Duration, extra ...bcast.Option) (*bcast.Cluster, time.Duration, error) {
	// Start every set-up from a collected heap, so none pays for the
	// garbage of the one before it.
	runtime.GC()
	t0 := time.Now()
	cl, err := bcast.NewCluster(context.Background(), facadeOptions(wl, timeout, extra...)...)
	if err != nil {
		return nil, 0, err
	}
	handle, variant := in.draw(len(wl.sizes), true)
	p := newPhase(wl.np, time.Hour, wl.sizes, handle, variant, false)
	err = facadeRun(cl, wl, in, bufs, p)
	d := time.Since(t0)
	if err != nil {
		cl.Close()
		return nil, 0, fmt.Errorf("warm round: %w", err)
	}
	st := p.stats(nil)
	in.commit(handle, st.rounds)
	if st.bad > 0 {
		cl.Close()
		return nil, 0, fmt.Errorf("warm round: %d broadcasts left a buffer different from the root's", st.bad)
	}
	return cl, d, nil
}

// barrierMsgs measures how many messages one barrier sends on cl, so
// traffic checks can take the per-round barrier out of engine counters.
// The dissemination barrier's count is fixed by the rank count.
func barrierMsgs(cl *bcast.Cluster) (int64, error) {
	const n = 8
	ctx := context.Background()
	s0 := cl.Metrics()
	err := cl.Run(ctx, func(c bcast.Comm) error {
		for i := 0; i < n; i++ {
			if err := c.Barrier(ctx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("barrier calibration: %w", err)
	}
	s1 := cl.Metrics()
	d := s1.EagerSends + s1.RdvSends - s0.EagerSends - s0.RdvSends
	if d%n != 0 || s1.RdvSends != s0.RdvSends || s1.StagedBytes != s0.StagedBytes {
		return 0, fmt.Errorf("barrier calibration: %d messages over %d barriers are not a fixed count of empty eager sends", d, n)
	}
	return d / n, nil
}
