// Package bench implements the paper's measurement protocol and the
// parameter sweeps behind every figure of the evaluation section.
//
// Two harnesses share the same reporting types:
//
//   - the real harness runs the executable collectives on the in-process
//     engine and reports wall-clock bandwidth, reproducing the paper's
//     user-level testing (barrier, then a loop of broadcasts, bandwidth =
//     message size over mean iteration time, in base-2 MB/s);
//   - the simulated harness replays the algorithms' schedules on the
//     netsim cluster model at full paper scale (up to 256 ranks and 32 MB
//     messages), regenerating the series of Figures 6(a-c), 7 and 8.
package bench

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/tune"
)

// MiB is 2^20 bytes; the paper uses megabytes "in the base-2 sense".
const MiB = 1 << 20

// Result is one measured point.
type Result struct {
	// Bytes is the broadcast message size.
	Bytes int
	// Seconds is the time per broadcast iteration.
	Seconds float64
	// MBps is Bytes/Seconds in base-2 MB/s.
	MBps float64
}

func newResult(bytes int, seconds float64) Result {
	r := Result{Bytes: bytes, Seconds: seconds}
	if seconds > 0 {
		r.MBps = float64(bytes) / seconds / MiB
	}
	return r
}

// Variant selects the broadcast implementation under test.
type Variant int

// Broadcast variants measured by the harnesses.
const (
	// Native is MPI_Bcast_native: binomial scatter + enclosed ring.
	Native Variant = iota
	// Opt is MPI_Bcast_opt: binomial scatter + tuned non-enclosed ring.
	Opt
	// Binomial is the short-message whole-buffer tree.
	Binomial
	// AutoNative is MPICH3's dispatcher with the native ring path.
	AutoNative
	// AutoOpt is the dispatcher with the tuned ring path.
	AutoOpt
	// SMPNative is the multi-core aware broadcast, native inter-node ring.
	SMPNative
	// SMPOpt is the multi-core aware broadcast, tuned inter-node ring.
	SMPOpt
)

// String names the variant like the paper.
func (v Variant) String() string {
	switch v {
	case Native:
		return "MPI_Bcast_native"
	case Opt:
		return "MPI_Bcast_opt"
	case Binomial:
		return "binomial"
	case AutoNative:
		return "auto(native)"
	case AutoOpt:
		return "auto(opt)"
	case SMPNative:
		return "smp(native)"
	case SMPOpt:
		return "smp(opt)"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ParseVariant maps a CLI name to a Variant.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "native":
		return Native, nil
	case "opt":
		return Opt, nil
	case "binomial":
		return Binomial, nil
	case "auto":
		return AutoNative, nil
	case "auto-opt":
		return AutoOpt, nil
	case "smp":
		return SMPNative, nil
	case "smp-opt":
		return SMPOpt, nil
	default:
		return 0, fmt.Errorf("bench: unknown variant %q (native|opt|binomial|auto|auto-opt|smp|smp-opt)", s)
	}
}

// ProgramFor returns the static communication schedule of a tuner
// decision, resolved through the collective registry.
func ProgramFor(d tune.Decision, p, root, n int) (*sched.Program, error) {
	reg, ok := collective.Lookup(d.Algorithm)
	if !ok {
		return nil, fmt.Errorf("bench: unknown algorithm %q (registered: %v)", d.Algorithm, collective.Names())
	}
	if reg.Program == nil {
		return nil, fmt.Errorf("bench: algorithm %q has no static schedule", d.Algorithm)
	}
	return reg.Program(p, root, n, d.SegSize)
}

// Program returns the variant's communication schedule for the simulated
// harness (only schedule-static variants are supported there), resolved
// through the collective registry.
func (v Variant) Program(p, root, n int) (*sched.Program, error) {
	switch v {
	case Native:
		return ProgramFor(tune.Decision{Algorithm: tune.RingNative}, p, root, n)
	case Opt:
		return ProgramFor(tune.Decision{Algorithm: tune.RingOpt}, p, root, n)
	case Binomial:
		return ProgramFor(tune.Decision{Algorithm: tune.Binomial}, p, root, n)
	case AutoNative, AutoOpt:
		d := tune.MPICH3{Tuned: v == AutoOpt}.Decide(tune.Env{Bytes: n, Procs: p})
		return ProgramFor(d, p, root, n)
	default:
		return nil, fmt.Errorf("bench: variant %v has no static schedule", v)
	}
}

// RealConfig configures a real-engine measurement.
type RealConfig struct {
	// NP is the rank count.
	NP int
	// CoresPerNode controls the blocked placement (0 = single node).
	CoresPerNode int
	// EagerLimit overrides the engine protocol threshold (0 = default).
	EagerLimit int
	// Iterations is the number of broadcasts per measurement (the paper
	// uses 100).
	Iterations int
	// Root is the broadcast root.
	Root int
	// Variant is the broadcast under test (ignored when Algo or Tuner is
	// set).
	Variant Variant
	// Algo, when non-empty, selects a registry algorithm by name instead
	// of Variant; SegSize is its segment parameter (segmented algorithms
	// only, 0 = default).
	Algo    string
	SegSize int
	// Tuner, when non-nil, takes precedence over Algo and Variant: every
	// broadcast dispatches through it (table-driven or default MPICH3
	// selection).
	Tuner tune.Tuner
	// Executor selects the engine's rank-execution substrate and
	// MaxWorkers bounds the pooled executor's worker count — see
	// engine.Options.
	Executor   engine.ExecPolicy
	MaxWorkers int
	// Metrics, when non-nil, instruments the measurement worlds (it must
	// be sized for NP ranks; build it with span capacity to record
	// operation spans). Nil worlds still count into a private Metrics —
	// the engine's counters are always on — it is just unreadable here.
	Metrics *metrics.Metrics
	// Transport selects the engine's point-to-point substrate by name
	// ("" or "chan" = in-process; "udp" = every message crosses a
	// loopback UDP socket). The measurement boots and closes its own
	// transport.
	Transport string
}

// ExecLabel names the configured rank-execution substrate for the
// benchmark's provenance line, worker clamp applied.
func (cfg RealConfig) ExecLabel() string {
	return engine.ExecLabel(cfg.Executor, cfg.MaxWorkers)
}

// TransportLabel names the configured point-to-point substrate for the
// same provenance line ("chan", "udp").
func (cfg RealConfig) TransportLabel() string {
	if cfg.Transport == "" {
		return transport.ChanName
	}
	return cfg.Transport
}

// bcastFn resolves the broadcast the harness measures: Tuner, then Algo,
// then the legacy Variant. Tuner- and Algo-driven runs resolve to a
// collective.Options value and dispatch through collective.Broadcast —
// the module's one selection path — so the harness measures exactly what
// a facade caller with the same options would run.
func (cfg RealConfig) bcastFn() (func(c mpi.Comm, buf []byte, root int) error, error) {
	switch {
	case cfg.Tuner != nil, cfg.Algo != "":
		o := collective.Options{SegSize: cfg.SegSize, Tuner: cfg.Tuner}
		if cfg.Tuner == nil {
			o.Algorithm = cfg.Algo
		} else {
			// Documented precedence: Tuner beats Algo, and SegSize stays
			// the pinned-algorithm parameter (tuner decisions keep their
			// own segment sizes).
			o.SegSize = 0
		}
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		return func(c mpi.Comm, buf []byte, root int) error {
			return collective.Broadcast(c, buf, root, o)
		}, nil
	default:
		if o, ok := cfg.Variant.options(); ok {
			return func(c mpi.Comm, buf []byte, root int) error {
				return collective.Broadcast(c, buf, root, o)
			}, nil
		}
		switch cfg.Variant {
		case SMPNative:
			return collective.BcastSMP, nil
		case SMPOpt:
			return collective.BcastSMPOpt, nil
		}
		return nil, fmt.Errorf("bench: bad variant %v", cfg.Variant)
	}
}

// options maps the variants that name a registry algorithm (or the
// default tuner) onto collective.Options, so their measurements dispatch
// through the module's one selection path and emit operation spans like
// any facade broadcast. The SMP variants are excluded on purpose: their
// registrations are capability-gated to multi-node topologies, while the
// direct entry points serve single-node runs with a binomial fallback —
// pinning them here would turn that fallback into an error.
func (v Variant) options() (collective.Options, bool) {
	switch v {
	case Native:
		return collective.Options{Algorithm: tune.RingNative}, true
	case Opt:
		return collective.Options{Algorithm: tune.RingOpt}, true
	case Binomial:
		return collective.Options{Algorithm: tune.Binomial}, true
	case AutoNative:
		return collective.Options{}, true
	case AutoOpt:
		return collective.Options{Tuner: tune.MPICH3{Tuned: true}}, true
	default:
		return collective.Options{}, false
	}
}

func (cfg RealConfig) topology() *topology.Map {
	if cfg.CoresPerNode <= 0 {
		return topology.SingleNode(cfg.NP)
	}
	return topology.Blocked(cfg.NP, cfg.CoresPerNode)
}

// MeasureReal runs the paper's protocol on the real engine: synchronize
// with a barrier, run cfg.Iterations broadcasts back to back, synchronize
// again, and report bandwidth from the root's elapsed wall-clock time.
func MeasureReal(cfg RealConfig, n int) (Result, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 100
	}
	fn, err := cfg.bcastFn()
	if err != nil {
		return Result{}, err
	}
	trans, err := transport.New(cfg.Transport, cfg.NP)
	if err != nil {
		return Result{}, err
	}
	defer trans.Close()
	var elapsed time.Duration
	err = engine.RunWith(engine.Options{
		NP:         cfg.NP,
		Topology:   cfg.topology(),
		EagerLimit: cfg.EagerLimit,
		Timeout:    10 * time.Minute,
		Executor:   cfg.Executor,
		MaxWorkers: cfg.MaxWorkers,
		Metrics:    cfg.Metrics,
		Transport:  trans,
	}, func(c mpi.Comm) error {
		buf := make([]byte, n)
		if c.Rank() == cfg.Root {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		if err := collective.Barrier(c); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < cfg.Iterations; i++ {
			if err := fn(c, buf, cfg.Root); err != nil {
				return err
			}
		}
		if err := collective.Barrier(c); err != nil {
			return err
		}
		if c.Rank() == cfg.Root {
			elapsed = time.Since(start)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return newResult(n, elapsed.Seconds()/float64(cfg.Iterations)), nil
}

// SimConfig configures a simulated measurement.
type SimConfig struct {
	// Model is the cluster calibration (netsim.Hornet() by default).
	Model *netsim.Model
	// CoresPerNode controls the blocked placement (default 24, Hornet).
	CoresPerNode int
	// Warm and Total bound the steady-state replication (defaults 2, 6).
	Warm, Total int
	// Root is the broadcast root.
	Root int
}

func (cfg *SimConfig) fill() {
	if cfg.Model == nil {
		cfg.Model = netsim.Hornet()
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = topology.HornetCoresPerNode
	}
	if cfg.Warm <= 0 {
		cfg.Warm = 2
	}
	if cfg.Total <= cfg.Warm {
		cfg.Total = cfg.Warm + 4
	}
}

// MeasureSim predicts the steady-state per-broadcast time of the variant
// on the modelled cluster and reports bandwidth.
func MeasureSim(cfg SimConfig, v Variant, p, n int) (Result, error) {
	cfg.fill()
	pr, err := v.Program(p, cfg.Root, n)
	if err != nil {
		return Result{}, err
	}
	topo := topology.Blocked(p, cfg.CoresPerNode)
	dt, err := netsim.SteadyStateIterTime(pr, topo, cfg.Model, cfg.Warm, cfg.Total)
	if err != nil {
		return Result{}, err
	}
	return newResult(n, dt), nil
}
