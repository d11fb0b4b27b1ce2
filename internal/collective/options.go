package collective

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/tune"
)

// Options select the algorithm for one broadcast call. Every selecting
// entry point in this module — Bcast, BcastOpt, BcastWith, the public
// bcast facade, and the benchmark harness — resolves its arguments into
// an Options value and routes through Broadcast, so there is exactly one
// selection path: Options -> Decide -> tune.Decision -> RunDecision.
//
// The zero value selects like stock MPICH3 (the tune.MPICH3 tuner).
type Options struct {
	// Algorithm, when non-empty, pins a registry algorithm by name and
	// bypasses the tuner entirely.
	Algorithm string
	// SegSize is the segment size in bytes for segmented (pipelined)
	// algorithms. With Algorithm set it is the pinned algorithm's
	// parameter; with a tuner deciding it overrides the decision's
	// segment size when positive (0 keeps the tuner's choice).
	SegSize int
	// Tuner decides the algorithm when Algorithm is empty; nil selects
	// the default tune.MPICH3 dispatch.
	Tuner tune.Tuner
}

// Decide resolves the options against a selection environment. This is
// the module's one selection path; nothing else turns call arguments
// into a tune.Decision.
func (o Options) Decide(e tune.Env) tune.Decision {
	if o.Algorithm != "" {
		return tune.Decision{Algorithm: o.Algorithm, SegSize: o.SegSize}
	}
	t := o.Tuner
	if t == nil {
		t = tune.MPICH3{}
	}
	d := t.Decide(e)
	if o.SegSize > 0 {
		d.SegSize = o.SegSize
	}
	return d
}

// Validate rejects options that can never select successfully: an
// Algorithm that is not registered, or a negative segment size. It does
// not check capability constraints — those depend on the communicator
// and are enforced per call by RunDecision.
func (o Options) Validate() error {
	if o.SegSize < 0 {
		return fmt.Errorf("collective: negative segment size %d", o.SegSize)
	}
	if o.Algorithm != "" {
		if _, ok := Lookup(o.Algorithm); !ok {
			return fmt.Errorf("collective: unknown algorithm %q (registered: %v)", o.Algorithm, Names())
		}
	}
	return nil
}

// Broadcast broadcasts buf from root with the algorithm the options
// select for this communicator and message — the single selecting entry
// point behind Bcast, BcastOpt and BcastWith.
func Broadcast(c mpi.Comm, buf []byte, root int, o Options) error {
	return RunDecision(c, buf, root, o.Decide(envOf(c, len(buf))))
}
