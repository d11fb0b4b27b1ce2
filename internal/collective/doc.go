// Package collective implements executable MPI collectives over the
// mpi.Comm interface.
//
// The broadcast family is the subject of the reproduced paper. Every
// static broadcast — one whose communication pattern follows from
// (P, root, n) alone — is an internal/core schedule generator, and this
// package runs it: a broadcast generates only the calling rank's ops
// and executes them in order through one interpreter (ExecProgram's),
// so the schedule the verifier, the simulator and the tuner see is the
// one that moves the bytes. The registered static broadcasts are
//
//   - binomial — MPICH's short-message whole-buffer binomial tree;
//   - scatter-ring-allgather — MPICH's long-message algorithm (binomial
//     scatter + enclosed ring allgather), the paper's MPI_Bcast_native;
//   - scatter-ring-allgather-opt — the paper's contribution (binomial
//     scatter + the non-enclosed ring of Listing 1), MPI_Bcast_opt;
//   - scatter-ring-allgather-seg / scatter-ring-allgather-opt-seg — the
//     two rings with the allgather phase pipelined in SegSize chunks;
//   - scatter-rdb-allgather — MPICH's medium-message power-of-two
//     algorithm (binomial scatter + recursive-doubling allgather);
//   - chain — a segmented pipeline chain (extension baseline).
//
// Bcast and BcastOpt are MPICH3's size/process-count dispatch over them
// (native vs tuned ring path). BcastSMP / BcastSMPOpt, the multi-core
// aware variant described in the paper's introduction (intra-node
// binomial on the root's node, inter-node scatter-ring-allgather among
// node leaders, intra-node binomial everywhere else), is the one
// hand-written broadcast: its sub-communicators come from a run-time
// Split, and each of its phases runs a static schedule.
//
// # Registry and tuning
//
// Every broadcast registers into a named registry (registry.go) as a
// Registration: a stable name (the tune.* name constants), capability
// predicates (power-of-two-only, minimum processes, multi-node-only,
// segmented), and either a schedule generator in its per-rank (Ops) and
// whole-world (Program) forms or, for the SMP broadcasts, a Run
// function. A Plan resolves a decision once and keeps its rank's ops,
// so persistent executions skip selection and generation entirely.
//
// Selection is delegated to internal/tune and flows through exactly one
// path: every entry point resolves its arguments into an Options value
// (a pinned Algorithm, a SegSize, a Tuner — zero value = stock MPICH3
// dispatch) and calls Broadcast, which runs Options.Decide to obtain a
// tune.Decision and hands it to RunDecision. Bcast, BcastOpt and
// BcastWith are thin wrappers that fill Options; the public bcast facade
// and the bench harness build the same struct, so "which algorithm runs"
// has a single answer per (Options, Env) everywhere in the system.
// tune.MPICH3 reproduces MPICH3's hardcoded dispatch bit-for-bit
// (pinned by a fixed decision table), and tune.TableTuner
// dispatches through a JSON tuning table derived by the auto-tuner from
// measured crossover points. RunDecision executes a single decision
// after checking it against the registered capabilities, so a mis-keyed
// table fails loudly instead of hanging a pow2-only algorithm on 129
// ranks.
//
// New algorithms plug in by calling Register (or MustRegister at init
// time); the CLI tools (bcastbench, bcastsim, transfercount) enumerate
// the registry rather than keeping private switches, so a registered
// algorithm is immediately benchmarkable, simulatable, countable, and
// auto-tunable.
//
// Supporting collectives (Barrier, Scatter, Gather, Allgather, Reduce,
// Allreduce) exist because the examples and the benchmark protocol need
// them, mirroring how a real MPI application would use the library.
//
// All byte-buffer collectives follow MPI_BYTE semantics. Every function
// is collective: all ranks of the communicator must call it with
// compatible arguments.
package collective

import (
	"repro/internal/core"
	"repro/internal/tune"
)

// Reserved tags for collectives not covered by internal/core's phase tags.
const (
	tagReduce    = 0x7F06
	tagGather    = 0x7F07
	tagScatter   = 0x7F08
	tagAllgather = 0x7F09
)

// MPICH3 broadcast dispatch thresholds, re-exported from internal/tune
// (the selection subsystem owns them; see tune.ShortMsgSize and friends
// for the paper's Section V provenance).
const (
	// BcastShortMsgSize: messages strictly below this use the binomial tree.
	BcastShortMsgSize = tune.ShortMsgSize
	// BcastLongMsgSize: messages at or above this always use
	// scatter-ring-allgather.
	BcastLongMsgSize = tune.LongMsgSize
	// BcastMinProcs: communicators smaller than this always use the
	// binomial tree (MPIR_BCAST_MIN_PROCS in MPICH).
	BcastMinProcs = tune.MinRingProcs
)

// Re-exported phase tags (defined next to the schedule generators so that
// traces can be matched against generated programs).
const (
	TagScatter  = core.TagScatter
	TagRing     = core.TagRing
	TagRdb      = core.TagRdb
	TagBinomial = core.TagBinomial
	TagBarrier  = core.TagBarrier
)
