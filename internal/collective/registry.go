package collective

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/tune"
)

// Capabilities are the hard constraints of a registered algorithm — what
// it needs to run correctly, as opposed to when it is fast (the tuner's
// concern).
type Capabilities struct {
	// MinProcs is the smallest communicator the algorithm accepts
	// (0 = no minimum).
	MinProcs int
	// Pow2Only restricts the algorithm to power-of-two communicators.
	Pow2Only bool
	// MultiNodeOnly restricts the algorithm to placements spanning more
	// than one node (the SMP-aware broadcasts degenerate to a plain
	// binomial tree on one node, so selecting them there is meaningless).
	MultiNodeOnly bool
	// Segmented marks algorithms that take a segment-size parameter.
	Segmented bool
}

// Tags renders the constraints as short flag labels for CLI listings
// (e.g. "pow2-only", "segmented"); an unconstrained algorithm yields nil.
func (cp Capabilities) Tags() []string {
	var tags []string
	if cp.MinProcs > 0 {
		tags = append(tags, fmt.Sprintf("min-procs=%d", cp.MinProcs))
	}
	if cp.Pow2Only {
		tags = append(tags, "pow2-only")
	}
	if cp.MultiNodeOnly {
		tags = append(tags, "multi-node-only")
	}
	if cp.Segmented {
		tags = append(tags, "segmented")
	}
	return tags
}

// Label renders the flags as one bracketed CLI column ("-" when
// unconstrained); bcastbench -list and bcastsim -candidates list share
// it so their listings stay format-identical.
func (cp Capabilities) Label() string {
	tags := cp.Tags()
	if len(tags) == 0 {
		return "-"
	}
	return "[" + strings.Join(tags, " ") + "]"
}

// Match reports whether the environment satisfies the constraints.
func (cp Capabilities) Match(e tune.Env) bool {
	if cp.MinProcs > 0 && e.Procs < cp.MinProcs {
		return false
	}
	if cp.Pow2Only && !e.Pow2() {
		return false
	}
	if cp.MultiNodeOnly && !e.MultiNode() {
		return false
	}
	return true
}

// OpsFunc is the per-rank form of a static broadcast schedule: it
// appends the ops rank executes in a p-rank broadcast of n bytes from
// root to ops and returns the extended slice. segSize is meaningful only
// for Capabilities.Segmented algorithms (0 = the algorithm's default).
type OpsFunc func(ops []sched.Op, p, root, n, segSize, rank int) []sched.Op

// Registration is one pluggable broadcast algorithm: a stable name, its
// capability constraints, and how to execute it. A static algorithm
// (data-independent communication pattern) is a schedule generator in two
// forms: Ops, which the runtime interprets rank by rank, and Program, the
// whole-world schedule for the verifier, the simulator and the auto-tuner.
// An algorithm whose pattern depends on runtime communicator state
// supplies Run instead.
type Registration struct {
	// Name is the registry key (one of the tune.* algorithm names for the
	// built-ins; extensions pick fresh names).
	Name string
	// Summary is a one-line human description, shown by the CLI tools.
	Summary string
	// Run executes a broadcast whose schedule is not static (the
	// Split-based SMP broadcasts); nil for static algorithms. segSize is
	// meaningful only for Capabilities.Segmented algorithms.
	Run func(c mpi.Comm, buf []byte, root, segSize int) error
	// Ops generates the calling rank's ops of a static schedule; the
	// broadcast executes them through the schedule interpreter. Ignored
	// when Run is set.
	Ops OpsFunc
	// Caps are the algorithm's hard constraints.
	Caps Capabilities
	// Program generates the static communication schedule, or is nil for
	// algorithms whose schedule depends on runtime communicator state.
	Program func(p, root, n, segSize int) (*sched.Program, error)
}

// run executes one broadcast of the registered algorithm: Run when it has
// one, otherwise the calling rank's slice of its static schedule.
func (r Registration) run(c mpi.Comm, buf []byte, root, segSize int) error {
	if r.Run != nil {
		return r.Run(c, buf, root, segSize)
	}
	return runStatic(c, buf, root, segSize, r.Name, r.Ops)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Registration{}
)

// Register adds an algorithm to the registry. Names must be unique and
// non-empty, and the algorithm must be executable: Run or Ops is
// mandatory.
func Register(r Registration) error {
	if r.Name == "" {
		return fmt.Errorf("collective: register: empty name")
	}
	if r.Run == nil && r.Ops == nil {
		return fmt.Errorf("collective: register %q: neither Run nor Ops", r.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[r.Name]; dup {
		return fmt.Errorf("collective: register %q: duplicate name", r.Name)
	}
	registry[r.Name] = r
	return nil
}

// MustRegister is Register that panics on error; the built-in algorithms
// use it at init time.
func MustRegister(r Registration) {
	if err := Register(r); err != nil {
		panic(err)
	}
}

// Lookup returns the registration for name.
func Lookup(name string) (Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := registry[name]
	return r, ok
}

// Names returns every registered algorithm name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Algorithms returns every registration, sorted by name.
func Algorithms() []Registration {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Registration, 0, len(registry))
	for _, r := range registry {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Candidates adapts the registry to the auto-tuner: every algorithm with
// a static schedule becomes a tune.Candidate whose applicability is its
// capability predicate.
func Candidates() []tune.Candidate {
	var out []tune.Candidate
	for _, r := range Algorithms() {
		if r.Program == nil {
			continue
		}
		out = append(out, candidateOf(r))
	}
	return out
}

// AllCandidates adapts the whole registry, including algorithms without
// a static schedule (the SMP broadcasts, whose pattern depends on
// runtime communicator state). Only measurers that execute candidates by
// name (tune.ProgramFree, like the real-engine measurer) can measure the
// schedule-less entries; schedule-replaying measurers skip them.
func AllCandidates() []tune.Candidate {
	var out []tune.Candidate
	for _, r := range Algorithms() {
		out = append(out, candidateOf(r))
	}
	return out
}

func candidateOf(r Registration) tune.Candidate {
	caps := r.Caps
	return tune.Candidate{
		Name:      r.Name,
		Segmented: caps.Segmented,
		Applies:   caps.Match,
		Program:   r.Program,
	}
}

// envOf builds the selection environment of a broadcast call. Node
// count, node occupancy and placement classification are all carried
// through the communicator's topology, so placement-keyed tuning rules
// resolve at run time exactly as they were derived.
func envOf(c mpi.Comm, n int) tune.Env {
	return tune.EnvOf(n, c.Size(), c.Topology())
}

// RunDecision executes a tuner decision through the registry, after
// checking the decided algorithm exists and its capabilities admit the
// environment (a mis-keyed tuning table fails loudly, not with a hang or
// a wrong answer deep inside an algorithm). As the one selection path's
// execution point it is also the broadcast span-emission site: when the
// communicator carries a span ring, every successful run records a
// {rank, op, algorithm, seg, bytes, start, duration} span.
func RunDecision(c mpi.Comm, buf []byte, root int, d tune.Decision) error {
	r, ok := Lookup(d.Algorithm)
	if !ok {
		return fmt.Errorf("collective: unknown algorithm %q (registered: %v)", d.Algorithm, Names())
	}
	if d.SegSize < 0 {
		// The segmented algorithms treat any non-positive segment as
		// their default; a negative one is a caller bug that must not
		// silently run with a different pipeline than asked for.
		return fmt.Errorf("collective: negative segment size %d for %q", d.SegSize, d.Algorithm)
	}
	if e := envOf(c, len(buf)); !r.Caps.Match(e) {
		return fmt.Errorf("collective: algorithm %q cannot run with %d bytes on %d ranks over %d node(s)",
			d.Algorithm, e.Bytes, e.Procs, e.NumNodes)
	}
	ring, start := spanStart(c)
	if err := r.run(c, buf, root, d.SegSize); err != nil {
		return err
	}
	if ring != nil {
		ring.Record(opBcast, d.Algorithm, d.SegSize, len(buf), start, time.Since(start))
	}
	return nil
}

// BcastWith broadcasts buf from root using the algorithm t selects for
// this communicator and message. It is Broadcast with only the Tuner
// option set; all selection goes through Options.Decide.
func BcastWith(c mpi.Comm, buf []byte, root int, t tune.Tuner) error {
	return Broadcast(c, buf, root, Options{Tuner: t})
}

// The built-in broadcast family. Every static entry executes the
// calling rank's ops from its internal/core generator; only the SMP
// broadcasts, which split the communicator at run time, are hand-written.
func init() {
	MustRegister(Registration{
		Name:    tune.Binomial,
		Summary: "whole-buffer binomial tree (MPICH short-message)",
		Ops:     binomialOps,
		Program: func(p, root, n, _ int) (*sched.Program, error) {
			return core.BinomialBcast(p, root, n), nil
		},
	})
	MustRegister(Registration{
		Name:    tune.ScatterRdb,
		Summary: "binomial scatter + recursive-doubling allgather (MPICH medium-message, pow2 only)",
		Ops: func(ops []sched.Op, p, root, n, _, rank int) []sched.Op {
			return core.BcastRdbOps(ops, p, root, n, rank)
		},
		Caps: Capabilities{Pow2Only: true},
		Program: func(p, root, n, _ int) (*sched.Program, error) {
			if !core.IsPow2(p) {
				return nil, fmt.Errorf("collective: %s requires a power-of-two communicator, got %d", tune.ScatterRdb, p)
			}
			return core.BcastRdbProgram(p, root, n), nil
		},
	})
	MustRegister(Registration{
		Name:    tune.RingNative,
		Summary: "binomial scatter + enclosed ring allgather (MPI_Bcast_native)",
		Ops:     ringNativeOps,
		Program: func(p, root, n, _ int) (*sched.Program, error) {
			return core.BcastNativeProgram(p, root, n), nil
		},
	})
	MustRegister(Registration{
		Name:    tune.RingOpt,
		Summary: "binomial scatter + non-enclosed ring allgather (the paper's MPI_Bcast_opt)",
		Ops:     ringOptOps,
		Program: func(p, root, n, _ int) (*sched.Program, error) {
			return core.BcastOptProgram(p, root, n), nil
		},
	})
	MustRegister(Registration{
		Name:    tune.RingSeg,
		Summary: "binomial scatter + segmented enclosed ring allgather (pipelined native)",
		Ops:     core.BcastNativeSegOps,
		Caps:    Capabilities{Segmented: true},
		Program: func(p, root, n, segSize int) (*sched.Program, error) {
			return core.BcastNativeSegProgram(p, root, n, segSize), nil
		},
	})
	MustRegister(Registration{
		Name:    tune.RingOptSeg,
		Summary: "binomial scatter + segmented non-enclosed ring allgather (pipelined MPI_Bcast_opt)",
		Ops:     core.BcastOptSegOps,
		Caps:    Capabilities{Segmented: true},
		Program: func(p, root, n, segSize int) (*sched.Program, error) {
			return core.BcastOptSegProgram(p, root, n, segSize), nil
		},
	})
	MustRegister(Registration{
		Name:    tune.Chain,
		Summary: "segmented pipeline-chain broadcast (extension baseline)",
		Ops:     core.ChainOps,
		Caps:    Capabilities{Segmented: true},
		Program: func(p, root, n, segSize int) (*sched.Program, error) {
			return core.ChainBcast(p, root, n, segSize), nil
		},
	})
	MustRegister(Registration{
		Name:    tune.SMP,
		Summary: "multi-core aware: intra-node binomial + native inter-node ring between leaders",
		Run: func(c mpi.Comm, buf []byte, root, _ int) error {
			return BcastSMP(c, buf, root)
		},
		Caps: Capabilities{MultiNodeOnly: true},
	})
	MustRegister(Registration{
		Name:    tune.SMPOpt,
		Summary: "multi-core aware: intra-node binomial + tuned inter-node ring between leaders",
		Run: func(c mpi.Comm, buf []byte, root, _ int) error {
			return BcastSMPOpt(c, buf, root)
		},
		Caps: Capabilities{MultiNodeOnly: true},
	})
}

// The unsegmented generators the SMP broadcast and Allreduce also run
// directly, adapted to OpsFunc.
func binomialOps(ops []sched.Op, p, root, n, _, rank int) []sched.Op {
	return core.BinomialOps(ops, p, root, n, rank)
}

func ringNativeOps(ops []sched.Op, p, root, n, _, rank int) []sched.Op {
	return core.BcastNativeOps(ops, p, root, n, rank)
}

func ringOptOps(ops []sched.Op, p, root, n, _, rank int) []sched.Op {
	return core.BcastOptOps(ops, p, root, n, rank)
}
