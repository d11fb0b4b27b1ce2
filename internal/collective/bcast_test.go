package collective

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/tune"
)

// pattern fills deterministic, offset-dependent bytes so any misplaced
// chunk is detected.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

type bcastFn func(mpi.Comm, []byte, int) error

// algo broadcasts with the registered algorithm name, pinned through the
// selection path like every caller outside this package.
func algo(name string) bcastFn { return algoSeg(name, 0) }

// algoSeg is algo with a segment size for the segmented algorithms.
func algoSeg(name string, seg int) bcastFn {
	o := Options{Algorithm: name, SegSize: seg}
	return func(c mpi.Comm, buf []byte, root int) error {
		return Broadcast(c, buf, root, o)
	}
}

// runBcast executes algo on a fresh world and checks every rank ends with
// the full pattern.
func runBcast(t *testing.T, name string, algo bcastFn, opts engine.Options, root, n int) {
	t.Helper()
	want := pattern(n)
	if opts.Timeout == 0 {
		opts.Timeout = 60 * time.Second
	}
	err := engine.RunWith(opts, func(c mpi.Comm) error {
		buf := make([]byte, n)
		if c.Rank() == root {
			copy(buf, want)
		}
		if err := algo(c, buf, root); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: buffer mismatch (first diff at %d)", c.Rank(), firstDiff(buf, want))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s p=%d root=%d n=%d: %v", name, opts.NP, root, n, err)
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// algorithms lists every broadcast implementation with its constraints.
var algorithms = []struct {
	name     string
	fn       bcastFn
	pow2Only bool
}{
	{"binomial", algo(tune.Binomial), false},
	{"scatter-ring-native", algo(tune.RingNative), false},
	{"scatter-ring-opt", algo(tune.RingOpt), false},
	{"scatter-rdb", algo(tune.ScatterRdb), true},
	{"dispatch-native", Bcast, false},
	{"dispatch-opt", BcastOpt, false},
	{"smp-native", BcastSMP, false},
	{"smp-opt", BcastSMPOpt, false},
}

func TestBcastCorrectnessGrid(t *testing.T) {
	for _, alg := range algorithms {
		for _, p := range []int{1, 2, 3, 4, 5, 8, 9, 10, 16, 17} {
			if alg.pow2Only && !core.IsPow2(p) {
				continue
			}
			for _, root := range []int{0, p / 2, p - 1} {
				if root < 0 {
					continue
				}
				for _, n := range []int{0, 1, p - 1, p, 10*p + 3, 1 << 12} {
					if n < 0 {
						continue
					}
					runBcast(t, alg.name, alg.fn, engine.Options{NP: p}, root, n)
				}
			}
		}
	}
}

func TestBcastRendezvousOnly(t *testing.T) {
	// All transports rendezvous: exercises blocked senders inside the
	// ring. Smaller grid, both ring variants.
	for _, alg := range algorithms[:3] {
		for _, p := range []int{2, 5, 8, 10} {
			opts := engine.Options{NP: p, EagerLimit: -1}
			runBcast(t, alg.name+"/rdv", alg.fn, opts, 0, 64*p+3)
		}
	}
}

func TestBcastTinyEagerLimit(t *testing.T) {
	// Eager limit of 16 bytes mixes the protocols within one broadcast
	// (short tail chunks eager, full chunks rendezvous).
	for _, alg := range algorithms[:3] {
		for _, p := range []int{4, 9, 12} {
			opts := engine.Options{NP: p, EagerLimit: 16}
			runBcast(t, alg.name+"/mixed", alg.fn, opts, 1%p, 24*p+5)
		}
	}
}

func TestBcastOnBlockedTopology(t *testing.T) {
	// Multi-node placement: all algorithms must stay correct regardless
	// of topology (only performance depends on it).
	topo := topology.Blocked(12, 4)
	for _, alg := range algorithms {
		if alg.pow2Only {
			continue
		}
		opts := engine.Options{NP: 12, Topology: topo}
		runBcast(t, alg.name+"/blocked", alg.fn, opts, 5, 4096)
	}
}

func TestBcastSMPRootNotLeader(t *testing.T) {
	// Root 7 is not a node leader under Blocked(9,3) (leaders: 0,3,6).
	topo := topology.Blocked(9, 3)
	for _, fn := range []bcastFn{BcastSMP, BcastSMPOpt} {
		opts := engine.Options{NP: 9, Topology: topo}
		runBcast(t, "smp-nonleader-root", fn, opts, 7, 1000)
	}
}

func TestBcastSMPSingleNodeFallsBack(t *testing.T) {
	// On one node the SMP variant degenerates to a plain binomial; it
	// must still work.
	runBcast(t, "smp-single-node", BcastSMP, engine.Options{NP: 6}, 2, 512)
}

func TestBcastRejectsBadRoot(t *testing.T) {
	err := engine.Run(2, func(c mpi.Comm) error {
		err := Broadcast(c, nil, 5, Options{Algorithm: tune.Binomial})
		if !errors.Is(err, mpi.ErrRank) {
			return fmt.Errorf("want ErrRank, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRdbRejectsNonPow2(t *testing.T) {
	err := engine.Run(3, func(c mpi.Comm) error {
		err := Broadcast(c, make([]byte, 3), 0, Options{Algorithm: tune.ScatterRdb})
		if err == nil {
			return errors.New("want power-of-two error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSelectAlgorithm pins the selection Bcast and BcastOpt make: the
// Options each passes to Broadcast must resolve to MPICH3's dispatch,
// untuned for Bcast and tuned for BcastOpt.
func TestSelectAlgorithm(t *testing.T) {
	bcast := Options{}
	bcastOpt := Options{Tuner: tune.MPICH3{Tuned: true}}
	cases := []struct {
		n, p  int
		tuned bool
		want  string
	}{
		// Short messages: always binomial.
		{0, 64, false, tune.Binomial},
		{12287, 64, false, tune.Binomial},
		{12287, 64, true, tune.Binomial},
		// Small communicators: always binomial, even long messages.
		{1 << 20, 7, false, tune.Binomial},
		{1 << 20, 7, true, tune.Binomial},
		// Medium, power-of-two: recursive doubling.
		{12288, 64, false, tune.ScatterRdb},
		{524287, 16, false, tune.ScatterRdb},
		{524287, 16, true, tune.ScatterRdb},
		// Medium, non-power-of-two: the ring path (the paper's
		// mmsg-npof2 case).
		{12288, 9, false, tune.RingNative},
		{12288, 9, true, tune.RingOpt},
		{524287, 129, false, tune.RingNative},
		{524287, 129, true, tune.RingOpt},
		// Long messages: the ring path regardless of process count.
		{524288, 16, false, tune.RingNative},
		{524288, 16, true, tune.RingOpt},
		{1 << 25, 256, false, tune.RingNative},
		{1 << 25, 256, true, tune.RingOpt},
	}
	for _, tc := range cases {
		o := bcast
		if tc.tuned {
			o = bcastOpt
		}
		got := o.Decide(tune.Env{Bytes: tc.n, Procs: tc.p, NumNodes: 1})
		if got.Algorithm != tc.want || got.SegSize != 0 {
			t.Errorf("Decide(n=%d, p=%d, tuned=%v) = %+v want %q with no segment size", tc.n, tc.p, tc.tuned, got, tc.want)
		}
	}
}

// TestDispatchUsesThresholdSizes runs the dispatcher at exactly the
// paper's threshold sizes end-to-end (correctness at the seams).
func TestDispatchUsesThresholdSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("threshold sizes move hundreds of KiB per rank")
	}
	for _, n := range []int{BcastShortMsgSize - 1, BcastShortMsgSize, BcastLongMsgSize - 1, BcastLongMsgSize} {
		for _, p := range []int{8, 9} {
			runBcast(t, "dispatch-threshold", Bcast, engine.Options{NP: p}, 0, n)
			runBcast(t, "dispatch-threshold-opt", BcastOpt, engine.Options{NP: p}, 0, n)
		}
	}
}
