package collective

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/testutil"
	"repro/internal/tune"
)

// allocHarness drives broadcasts through one long-lived world so a
// "round" (one full broadcast across all ranks) costs only the
// collective itself — no boot, no goroutine launches. Only rank 0 talks
// to the host: it receives the round's size index from a channel and
// relays it to the other ranks with a tiny control broadcast, so every
// other rank blocks exclusively inside engine operations. That matters
// on the pooled executor, where a rank blocked on a bare channel would
// sit on an execution slot and starve ranks that still need to run.
type allocHarness struct {
	np      int
	sizes   []int
	bufs    [][][]byte // bufs[sizeIdx][rank]
	jobs    chan int   // size index; -1 shuts down
	done    chan error
	runDone chan error
}

func startAllocHarness(t *testing.T, np int, exec engine.ExecPolicy, mx *metrics.Metrics, sizes []int, bcast func(c mpi.Comm, buf []byte) error) *allocHarness {
	t.Helper()
	h := &allocHarness{
		np:      np,
		sizes:   sizes,
		bufs:    make([][][]byte, len(sizes)),
		jobs:    make(chan int),
		done:    make(chan error, 1),
		runDone: make(chan error, 1),
	}
	// The buffer table is built before the world launches and never
	// written by the host again, so rank bodies read it without locks.
	for i, n := range sizes {
		bs := make([][]byte, np)
		for r := range bs {
			bs[r] = make([]byte, n)
		}
		bs[0][0], bs[0][n-1] = 0xAB, 0xCD
		h.bufs[i] = bs
	}
	w, err := engine.NewWorld(engine.Options{
		NP:       np,
		Executor: exec,
		Metrics:  mx,
		// The world stays up for the whole measurement; keep the
		// wall-clock watchdog out of the way.
		Timeout: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		h.runDone <- w.Run(func(c mpi.Comm) error {
			r := c.Rank()
			ctl := make([]byte, 8)
			for {
				if r == 0 {
					binary.LittleEndian.PutUint64(ctl, uint64(int64(<-h.jobs)))
				}
				if err := runStatic(c, ctl, 0, 0, tune.Binomial, binomialOps); err != nil {
					return err
				}
				idx := int(int64(binary.LittleEndian.Uint64(ctl)))
				if idx < 0 {
					return nil
				}
				err := bcast(c, h.bufs[idx][r])
				if berr := Barrier(c); err == nil {
					err = berr
				}
				if r == 0 {
					h.done <- err
				}
				if err != nil {
					return err
				}
			}
		})
	}()
	return h
}

// round runs one full broadcast of sizes[idx] bytes on every rank. It
// allocates nothing itself: two channel handoffs around engine traffic.
func (h *allocHarness) round(idx int) error {
	h.jobs <- idx
	return <-h.done
}

func (h *allocHarness) stop(t *testing.T) {
	t.Helper()
	h.jobs <- -1
	if err := <-h.runDone; err != nil {
		t.Fatal(err)
	}
}

// TestBcastOptSegSteadyStateAllocs is the allocs/op gate for the
// broadcasts the runtime executes from static schedules — the paper's
// segmented scatter-ring-allgather and every other static registration:
// on a long-lived world the per-broadcast allocation count must be (a)
// small — the engine's pooled staging, envelopes, posted receives and
// requests, and the pooled per-call op scratch, leave only incidental
// allocations — and (b) independent of the message size. (b) is the
// sharp edge: a 1 MiB broadcast with 8 KiB segments moves 128x the
// segments of a 4 KiB one, so any leaked per-segment, per-op or per-byte
// allocation shows up as a slope across the sizes.
func TestBcastOptSegSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const (
		np      = 8
		segSize = 8 << 10
		// perRoundBudget bounds the allocations of one full broadcast
		// round (all np ranks, control traffic and barrier included) at
		// any size. The measured steady state is ~0-2; the budget leaves
		// headroom for runtime incidentals (a pool refill after a
		// background GC, a channel wakeup's sudog).
		perRoundBudget = 64.0
		// flatSlack bounds how much the largest size may exceed the
		// smallest: flatness, not just boundedness.
		flatSlack = 32.0
	)
	sizes := []int{4 << 10, 64 << 10, 1 << 20}
	algos := []string{
		tune.Binomial, tune.ScatterRdb, tune.RingNative, tune.RingOpt,
		tune.RingSeg, tune.RingOptSeg, tune.Chain,
	}

	// Every cell broadcasts through the selection path (Broadcast), one
	// subtest per algorithm. The grid's spans axis proves the
	// observability layer free: the "spans" cells record spans and must
	// meet the exact same budgets as the bare cells. Counters are always
	// on in both.
	for _, exec := range []engine.ExecPolicy{engine.Goroutine, engine.Pooled} {
		for _, spans := range []bool{false, true} {
			name := exec.String()
			if spans {
				name += "/spans"
			}
			t.Run(name, func(t *testing.T) {
				for _, algo := range algos {
					t.Run(algo, func(t *testing.T) {
						var mx *metrics.Metrics
						if spans {
							mx = metrics.New(np, 256)
						}
						o := Options{Algorithm: algo, SegSize: segSize}
						h := startAllocHarness(t, np, exec, mx, sizes, func(c mpi.Comm, buf []byte) error {
							return Broadcast(c, buf, 0, o)
						})
						defer h.stop(t)

						// Warm the pools: the first broadcast at each size
						// populates the size classes the steady state reuses.
						for i := range sizes {
							if err := h.round(i); err != nil {
								t.Fatal(err)
							}
						}

						got := make([]float64, len(sizes))
						for i, n := range sizes {
							got[i] = testing.AllocsPerRun(20, func() {
								if err := h.round(i); err != nil {
									t.Fatal(err)
								}
							})
							t.Logf("size=%-8d allocs/broadcast=%.1f", n, got[i])
						}
						for i, n := range sizes {
							if got[i] > perRoundBudget {
								t.Errorf("size %d: %.1f allocs per broadcast round, budget %.0f", n, got[i], perRoundBudget)
							}
						}
						if d := got[len(sizes)-1] - got[0]; d > flatSlack {
							t.Errorf("allocs not flat across sizes: %.1f more at %d B than at %d B (slack %.0f)",
								d, sizes[len(sizes)-1], sizes[0], flatSlack)
						}
						// Spot-check the payload actually traveled.
						for i, n := range sizes {
							for r := 1; r < np; r++ {
								if h.bufs[i][r][0] != 0xAB || h.bufs[i][r][n-1] != 0xCD {
									t.Fatalf("size %d rank %d: payload not broadcast", n, r)
								}
							}
						}
						if mx != nil {
							if rec := mx.Snapshot().SpansRecorded; rec == 0 {
								t.Error("spans cell recorded no spans")
							}
						}
					})
				}
			})
		}
	}
}
