package collective

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/tune"
)

// TestRegistryComplete asserts every broadcast of the paper's family is
// registered under its stable name.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		tune.Binomial, tune.Chain, tune.ScatterRdb,
		tune.RingNative, tune.RingOpt, tune.RingSeg, tune.RingOptSeg,
		tune.SMP, tune.SMPOpt,
	}
	for _, name := range want {
		r, ok := Lookup(name)
		if !ok {
			t.Fatalf("algorithm %q not registered (have %v)", name, Names())
		}
		if r.Run == nil && r.Ops == nil {
			t.Errorf("algorithm %q is not executable", name)
		}
		if r.Summary == "" {
			t.Errorf("algorithm %q has no summary", name)
		}
	}
	if got := len(Names()); got != len(want) {
		t.Errorf("registry has %d algorithms, want %d: %v", got, len(want), Names())
	}
}

// TestRegistryCapabilities asserts every registered algorithm's
// capability predicate matches its documented constraints.
func TestRegistryCapabilities(t *testing.T) {
	single := func(p, n int) tune.Env { return tune.Env{Bytes: n, Procs: p, NumNodes: 1} }
	multi := func(p, n int) tune.Env { return tune.Env{Bytes: n, Procs: p, NumNodes: 2} }

	cases := []struct {
		algo  string
		env   tune.Env
		match bool
	}{
		// Binomial: no constraints.
		{tune.Binomial, single(1, 0), true},
		{tune.Binomial, single(129, 1<<25), true},
		{tune.Binomial, multi(7, 64), true},
		// Scatter-rdb: power-of-two communicators only.
		{tune.ScatterRdb, single(8, 1<<16), true},
		{tune.ScatterRdb, single(256, 1<<16), true},
		{tune.ScatterRdb, single(10, 1<<16), false},
		{tune.ScatterRdb, single(129, 1<<16), false},
		{tune.ScatterRdb, multi(129, 1<<16), false},
		// The rings and the chain: any communicator, any placement.
		{tune.RingNative, single(1, 0), true},
		{tune.RingNative, multi(129, 1<<20), true},
		{tune.RingOpt, single(10, 1<<20), true},
		{tune.RingOpt, multi(256, 1<<25), true},
		{tune.Chain, single(3, 1<<10), true},
		{tune.Chain, multi(64, 1<<22), true},
		// SMP variants: meaningful only across nodes.
		{tune.SMP, single(16, 1<<20), false},
		{tune.SMP, multi(16, 1<<20), true},
		{tune.SMPOpt, single(16, 1<<20), false},
		{tune.SMPOpt, multi(16, 1<<20), true},
	}
	for _, tc := range cases {
		r, ok := Lookup(tc.algo)
		if !ok {
			t.Fatalf("algorithm %q not registered", tc.algo)
		}
		if got := r.Caps.Match(tc.env); got != tc.match {
			t.Errorf("%s.Caps.Match(%+v) = %v want %v", tc.algo, tc.env, got, tc.match)
		}
	}

	// Structural expectations of the documented constraints.
	if r, _ := Lookup(tune.ScatterRdb); !r.Caps.Pow2Only {
		t.Error("scatter-rdb must be Pow2Only")
	}
	for _, name := range []string{tune.Chain, tune.RingSeg, tune.RingOptSeg} {
		if r, _ := Lookup(name); !r.Caps.Segmented {
			t.Errorf("%s must be Segmented", name)
		}
	}
	for _, name := range []string{tune.SMP, tune.SMPOpt} {
		if r, _ := Lookup(name); !r.Caps.MultiNodeOnly {
			t.Errorf("%s must be MultiNodeOnly", name)
		}
	}
}

// TestDefaultTunerGolden pins tune.MPICH3 — the tuner behind Bcast and
// BcastOpt — to MPICH3's broadcast dispatch in a fixed table: both sides
// of the short- and long-message thresholds and of the minimum process
// count, power-of-two and non-power-of-two communicators, tuned and
// untuned. The default dispatch must not depend on topology, so every
// row is checked on one node and on four.
func TestDefaultTunerGolden(t *testing.T) {
	cases := []struct {
		n, p           int
		untuned, tuned string
	}{
		// Short messages: always binomial.
		{0, 64, tune.Binomial, tune.Binomial},
		{BcastShortMsgSize - 1, 64, tune.Binomial, tune.Binomial},
		{BcastShortMsgSize - 1, 9, tune.Binomial, tune.Binomial},
		// Communicators below BcastMinProcs: binomial even for long
		// messages; at BcastMinProcs the size thresholds take over.
		{1 << 20, BcastMinProcs - 1, tune.Binomial, tune.Binomial},
		{BcastShortMsgSize, BcastMinProcs - 1, tune.Binomial, tune.Binomial},
		{1 << 20, BcastMinProcs, tune.RingNative, tune.RingOpt},
		{BcastShortMsgSize, BcastMinProcs, tune.ScatterRdb, tune.ScatterRdb},
		// Medium, power-of-two: recursive doubling, tuned or not.
		{BcastShortMsgSize, 64, tune.ScatterRdb, tune.ScatterRdb},
		{BcastLongMsgSize - 1, 16, tune.ScatterRdb, tune.ScatterRdb},
		// Medium, non-power-of-two: the ring path (the paper's
		// mmsg-npof2 case).
		{BcastShortMsgSize, 9, tune.RingNative, tune.RingOpt},
		{BcastLongMsgSize - 1, 129, tune.RingNative, tune.RingOpt},
		// Long messages: the ring path regardless of process count.
		{BcastLongMsgSize, 16, tune.RingNative, tune.RingOpt},
		{BcastLongMsgSize, 9, tune.RingNative, tune.RingOpt},
		{1 << 25, 256, tune.RingNative, tune.RingOpt},
	}
	for _, tc := range cases {
		for _, tuned := range []bool{false, true} {
			want := tc.untuned
			if tuned {
				want = tc.tuned
			}
			for _, nodes := range []int{1, 4} {
				d := tune.MPICH3{Tuned: tuned}.Decide(tune.Env{Bytes: tc.n, Procs: tc.p, NumNodes: nodes})
				if d.Algorithm != want || d.SegSize != 0 {
					t.Errorf("MPICH3{Tuned:%v}.Decide(n=%d, p=%d, nodes=%d) = %+v, want %q with no segment size",
						tuned, tc.n, tc.p, nodes, d, want)
				}
			}
		}
	}
}

// TestRegistryOpsMatchProgram: a static registration's two forms are one
// schedule — what the runtime generates for each rank (Ops) is exactly
// that rank's list in the whole-world Program the verifier, the
// simulator and the tuner consume.
func TestRegistryOpsMatchProgram(t *testing.T) {
	for _, r := range Algorithms() {
		if r.Ops == nil {
			continue
		}
		for _, p := range []int{1, 2, 7, 8, 13} {
			for _, n := range []int{0, p, 10*p + 3} {
				for _, seg := range []int{0, 5} {
					env := tune.Env{Bytes: n, Procs: p, NumNodes: 1}
					if !r.Caps.Match(env) {
						continue
					}
					root := p / 2
					pr, err := r.Program(p, root, n, seg)
					if err != nil {
						t.Fatal(err)
					}
					for rank := 0; rank < p; rank++ {
						ops := r.Ops(nil, p, root, n, seg, rank)
						if want := pr.OpsOf(rank); !slices.Equal(ops, want) {
							t.Fatalf("%s p=%d n=%d seg=%d rank %d: Ops %v, Program %v", r.Name, p, n, seg, rank, ops, want)
						}
					}
				}
			}
		}
	}
}

// TestRunDecisionExecutesEveryAlgorithm broadcasts through RunDecision
// for every registered algorithm in an environment its capabilities
// admit, checking payload delivery on all ranks.
func TestRunDecisionExecutesEveryAlgorithm(t *testing.T) {
	const p, n, root = 8, 4096, 3
	topo := topology.Blocked(p, 4) // 2 nodes: admits the SMP variants
	want := pattern(n)
	for _, r := range Algorithms() {
		d := tune.Decision{Algorithm: r.Name}
		if r.Caps.Segmented {
			d.SegSize = 512
		}
		err := engine.RunWith(engine.Options{NP: p, Topology: topo}, func(c mpi.Comm) error {
			buf := make([]byte, n)
			if c.Rank() == root {
				copy(buf, want)
			}
			if err := RunDecision(c, buf, root, d); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("rank %d: buffer mismatch", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Errorf("RunDecision(%q): %v", r.Name, err)
		}
	}
}

// TestRunDecisionRejects covers the failure modes a bad tuning table can
// trigger: unknown names and capability mismatches.
func TestRunDecisionRejects(t *testing.T) {
	err := engine.Run(6, func(c mpi.Comm) error {
		if err := RunDecision(c, make([]byte, 64), 0, tune.Decision{Algorithm: "no-such-bcast"}); err == nil ||
			!strings.Contains(err.Error(), "unknown algorithm") {
			return fmt.Errorf("unknown algorithm: got %v", err)
		}
		// scatter-rdb on 6 ranks violates Pow2Only.
		if err := RunDecision(c, make([]byte, 64), 0, tune.Decision{Algorithm: tune.ScatterRdb}); err == nil ||
			!strings.Contains(err.Error(), "cannot run") {
			return fmt.Errorf("capability mismatch: got %v", err)
		}
		// smp on a single node violates MultiNodeOnly.
		if err := RunDecision(c, make([]byte, 64), 0, tune.Decision{Algorithm: tune.SMP}); err == nil ||
			!strings.Contains(err.Error(), "cannot run") {
			return fmt.Errorf("smp on one node: got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastWithTableTuner drives BcastWith through a hand-written tuning
// table, checking the table's decision (not the default dispatch) runs.
func TestBcastWithTableTuner(t *testing.T) {
	table := &tune.Table{
		Name: "test",
		Rules: []tune.Rule{
			// Everything on 5 ranks goes through the chain with 128-byte
			// segments — a selection MPICH3's dispatch would never make.
			{MinProcs: 5, MaxProcs: 5, Decision: tune.Decision{Algorithm: tune.Chain, SegSize: 128}},
		},
	}
	tuner := tune.TableTuner{Table: table, Fallback: tune.MPICH3{}}
	const n, root = 2048, 1
	want := pattern(n)
	err := engine.Run(5, func(c mpi.Comm) error {
		buf := make([]byte, n)
		if c.Rank() == root {
			copy(buf, want)
		}
		if err := BcastWith(c, buf, root, tuner); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: buffer mismatch", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegisterRejects covers registry hygiene: empty names, nil Run,
// duplicates.
func TestRegisterRejects(t *testing.T) {
	if err := Register(Registration{Name: ""}); err == nil {
		t.Error("empty name must fail")
	}
	if err := Register(Registration{Name: "x"}); err == nil {
		t.Error("nil Run must fail")
	}
	dummy := func(mpi.Comm, []byte, int, int) error { return nil }
	if err := Register(Registration{Name: tune.Binomial, Run: dummy}); err == nil {
		t.Error("duplicate name must fail")
	}
}

// TestCandidatesCoverStaticAlgorithms asserts the auto-tuner sees exactly
// the schedule-static registry entries.
func TestCandidatesCoverStaticAlgorithms(t *testing.T) {
	got := map[string]bool{}
	for _, c := range Candidates() {
		got[c.Name] = true
		if c.Program == nil {
			t.Errorf("candidate %q has nil Program", c.Name)
		}
		if c.Applies == nil {
			t.Errorf("candidate %q has nil Applies", c.Name)
		}
	}
	for _, r := range Algorithms() {
		if (r.Program != nil) != got[r.Name] {
			t.Errorf("candidate coverage mismatch for %q (static=%v, candidate=%v)",
				r.Name, r.Program != nil, got[r.Name])
		}
	}
	// The Split-based SMP broadcasts have no static schedule.
	if got[tune.SMP] || got[tune.SMPOpt] {
		t.Error("smp variants must not be auto-tuner candidates")
	}
}

// TestIndexOf pins the helper behind bcastSMP's local-root resolution,
// including the -1 miss the defensive guard in bcastSMP now catches
// (topology.Map is self-consistent today, so the guard is unreachable
// through the public API; the helper's miss behavior is what it relies
// on).
func TestIndexOf(t *testing.T) {
	xs := []int{3, 7, 11}
	for i, v := range xs {
		if got := indexOf(xs, v); got != i {
			t.Errorf("indexOf(%v, %d) = %d want %d", xs, v, got, i)
		}
	}
	if got := indexOf(xs, 5); got != -1 {
		t.Errorf("indexOf miss = %d want -1", got)
	}
	if got := indexOf(nil, 0); got != -1 {
		t.Errorf("indexOf(nil) = %d want -1", got)
	}
}

// TestCapabilityTags pins the CLI flag labels the tools print next to
// registry names.
func TestCapabilityTags(t *testing.T) {
	cases := []struct {
		caps Capabilities
		want string
	}{
		{Capabilities{}, ""},
		{Capabilities{Segmented: true}, "segmented"},
		{Capabilities{Pow2Only: true}, "pow2-only"},
		{Capabilities{MultiNodeOnly: true}, "multi-node-only"},
		{Capabilities{MinProcs: 2, Pow2Only: true, Segmented: true}, "min-procs=2 pow2-only segmented"},
	}
	for _, tc := range cases {
		got := ""
		for i, tag := range tc.caps.Tags() {
			if i > 0 {
				got += " "
			}
			got += tag
		}
		if got != tc.want {
			t.Errorf("Tags(%+v) = %q, want %q", tc.caps, got, tc.want)
		}
	}
}
