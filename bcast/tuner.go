package bcast

import (
	"repro/internal/collective"
	"repro/internal/tune"
)

// Registered broadcast algorithm names, re-exported from the tuning
// subsystem. These are the stable identifiers accepted by the Algorithm
// and WithAlgorithm options and emitted in Decisions; Algorithms lists
// them with their constraints.
const (
	// Binomial is the whole-buffer binomial tree (MPICH short-message).
	Binomial = tune.Binomial
	// ScatterRdb is binomial scatter + recursive-doubling allgather
	// (MPICH medium-message, power-of-two rank counts only).
	ScatterRdb = tune.ScatterRdb
	// RingNative is binomial scatter + enclosed ring allgather — the
	// paper's MPI_Bcast_native (MPICH long-message).
	RingNative = tune.RingNative
	// RingOpt is binomial scatter + the paper's non-enclosed ring
	// allgather — MPI_Bcast_opt, the bandwidth-saving contribution.
	RingOpt = tune.RingOpt
	// RingSeg and RingOptSeg pipeline the two rings in SegSize chunks.
	RingSeg    = tune.RingSeg
	RingOptSeg = tune.RingOptSeg
	// Chain is the segmented pipeline-chain broadcast.
	Chain = tune.Chain
	// SMP and SMPOpt are the multi-core aware broadcasts (intra-node
	// binomial, native or tuned inter-node ring between node leaders);
	// they require a placement spanning more than one node.
	SMP    = tune.SMP
	SMPOpt = tune.SMPOpt
)

// Env is the selection environment a tuner decides on: everything known
// about a broadcast call before any byte moves. NumNodes, CoresPerNode
// and Placement derive from the cluster's rank placement.
type Env struct {
	// Bytes is the broadcast message size.
	Bytes int
	// Procs is the communicator size.
	Procs int
	// NumNodes is the number of distinct nodes hosting the ranks.
	NumNodes int
	// CoresPerNode is the largest number of ranks on one node.
	CoresPerNode int
	// Placement classifies the rank-to-node mapping: "single",
	// "blocked", "round-robin" or "irregular".
	Placement string
}

// Decision is a resolved selection: the registered algorithm to run and
// its segment size (0 for unsegmented algorithms or their default).
type Decision struct {
	// Algorithm is the registry name (one of the constants above, or a
	// registered extension).
	Algorithm string
	// SegSize is the pipeline segment size in bytes.
	SegSize int
}

// TunerFunc maps a selection environment to a Decision. Implementations
// must be pure — the same Env always yields the same Decision — because
// every rank of a collective evaluates it independently and all must
// agree on the algorithm.
type TunerFunc func(Env) Decision

// MPICH3Tuner returns the library's default dispatch as a TunerFunc:
// stock MPICH3's size and rank-count thresholds, with the paper's
// non-enclosed ring on the long-message paths when tuned is true. It is
// exported so callers can wrap or fall back to the default selection
// inside their own tuners.
func MPICH3Tuner(tuned bool) TunerFunc {
	t := tune.MPICH3{Tuned: tuned}
	return func(e Env) Decision {
		return decisionOut(t.Decide(envIn(e)))
	}
}

// envOut converts the internal selection environment to the public one.
func envOut(e tune.Env) Env {
	return Env{
		Bytes:        e.Bytes,
		Procs:        e.Procs,
		NumNodes:     e.NumNodes,
		CoresPerNode: e.CoresPerNode,
		Placement:    e.Placement,
	}
}

// envIn is the inverse of envOut.
func envIn(e Env) tune.Env {
	return tune.Env{
		Bytes:        e.Bytes,
		Procs:        e.Procs,
		NumNodes:     e.NumNodes,
		CoresPerNode: e.CoresPerNode,
		Placement:    e.Placement,
	}
}

// decisionOut converts an internal decision to the public type.
func decisionOut(d tune.Decision) Decision {
	return Decision{Algorithm: d.Algorithm, SegSize: d.SegSize}
}

// tunerAdapter lets a public TunerFunc stand where the selection
// subsystem expects a tune.Tuner.
type tunerAdapter struct{ fn TunerFunc }

func (a tunerAdapter) Decide(e tune.Env) tune.Decision {
	d := a.fn(envOut(e))
	return tune.Decision{Algorithm: d.Algorithm, SegSize: d.SegSize}
}

// AlgorithmInfo describes one registered broadcast algorithm.
type AlgorithmInfo struct {
	// Name is the registry identifier (pass it to Algorithm or
	// WithAlgorithm).
	Name string
	// Summary is a one-line human description.
	Summary string
	// Constraints are the algorithm's hard requirements as short labels
	// (e.g. "pow2-only", "multi-node-only", "segmented"); empty when
	// unconstrained.
	Constraints []string
}

// Algorithms lists every registered broadcast algorithm, sorted by name.
func Algorithms() []AlgorithmInfo {
	regs := collective.Algorithms()
	out := make([]AlgorithmInfo, 0, len(regs))
	for _, r := range regs {
		out = append(out, AlgorithmInfo{Name: r.Name, Summary: r.Summary, Constraints: r.Caps.Tags()})
	}
	return out
}
