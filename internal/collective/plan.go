package collective

import (
	"fmt"
	"time"

	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/tune"
)

// Plan is a pre-resolved broadcast: the tuner decision, the registry
// entry it names and (for static algorithms) this rank's ops of the
// communication schedule, all computed and validated once so repeated
// executions skip selection and schedule generation entirely. It is the
// engine-side half of the facade's persistent handles: Broadcast does
// envOf + Decide + Lookup + Caps and generates the rank's ops per call;
// a Plan does them at build time and Execute goes straight to the
// interpreter (or the registered Run).
//
// A Plan belongs to one rank of one communicator group (every rank of
// a persistent collective builds its own), is not safe for concurrent
// use, and is pinned to the (byte count, root) it was built with until
// Rebind.
type Plan struct {
	n    int
	root int
	size int // communicator size, for Program
	opts Options
	dec  tune.Decision
	reg  Registration
	ops  []sched.Op // this rank's schedule; unused when reg.Run is set

	// cache memoizes the tuner decision across Rebinds keyed on the full
	// environment: double-buffered serving (two buffers, same length)
	// re-resolves for free, while a length change genuinely re-decides.
	cache tune.CachedDecision
}

// NewPlan resolves o against (c, n, root) and validates the outcome the
// same way RunDecision would, so an Init-time Plan failure is exactly
// the failure the equivalent Broadcast call would have produced — just
// earlier, before anything is in flight.
func NewPlan(c mpi.Comm, n, root int, o Options) (*Plan, error) {
	if err := checkRoot(c, root); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("collective: plan: negative length %d", n)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{root: root, opts: o}
	if err := p.resolve(c, n); err != nil {
		return nil, err
	}
	return p, nil
}

// resolve decides and validates for a byte count, generating this rank's
// ops of a static algorithm's schedule.
func (p *Plan) resolve(c mpi.Comm, n int) error {
	e := envOf(c, n)
	d := p.cache.Get(e, p.opts.Decide)
	r, ok := Lookup(d.Algorithm)
	if !ok {
		return fmt.Errorf("collective: plan: unknown algorithm %q (registered: %v)", d.Algorithm, Names())
	}
	if d.SegSize < 0 {
		return fmt.Errorf("collective: plan: negative segment size %d for %q", d.SegSize, d.Algorithm)
	}
	if !r.Caps.Match(e) {
		return fmt.Errorf("collective: plan: algorithm %q cannot run with %d bytes on %d ranks over %d node(s)",
			d.Algorithm, e.Bytes, e.Procs, e.NumNodes)
	}
	p.ops = p.ops[:0]
	if r.Run == nil {
		p.ops = r.Ops(p.ops, c.Size(), p.root, n, d.SegSize, c.Rank())
	}
	p.n, p.size, p.dec, p.reg = n, c.Size(), d, r
	return nil
}

// Rebind re-resolves the plan for a new byte count (a new buffer of the
// same length is free: the memoized decision wins an equality check and
// nothing else changes).
func (p *Plan) Rebind(c mpi.Comm, n int) error {
	if n == p.n {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("collective: plan: negative length %d", n)
	}
	return p.resolve(c, n)
}

// SetOptions replaces the selection options and invalidates the
// decision memo — an override must force a fresh decision even for an
// unchanged environment.
func (p *Plan) SetOptions(c mpi.Comm, o Options) error {
	if err := o.Validate(); err != nil {
		return err
	}
	p.opts = o
	p.cache.Invalidate()
	return p.resolve(c, p.n)
}

// Execute runs the planned broadcast on c, the communicator the plan was
// built on. The buffer must have the planned length (use Rebind for a
// different size). A static algorithm runs its cached ops through the
// same interpreter Broadcast uses after generating them, so a plan
// execution is byte- and traffic-identical to the equivalent per-call
// broadcast by construction; the others dispatch to the registration's
// Run. Like RunDecision, it emits an operation span on success when the
// communicator carries a span ring, so persistent Start/Wait rounds
// appear on the same timeline as per-call broadcasts — and stays
// allocation-free doing it.
func (p *Plan) Execute(c mpi.Comm, buf []byte) error {
	if len(buf) != p.n {
		return fmt.Errorf("collective: plan executed with %d bytes, built for %d (Rebind first)", len(buf), p.n)
	}
	ring, start := spanStart(c)
	var err error
	if p.reg.Run != nil {
		err = p.reg.Run(c, buf, p.root, p.dec.SegSize)
	} else {
		err = execBcast(c, p.dec.Algorithm, p.ops, buf)
	}
	if err != nil {
		return err
	}
	if ring != nil {
		ring.Record(opBcast, p.dec.Algorithm, p.dec.SegSize, p.n, start, time.Since(start))
	}
	return nil
}

// Bytes returns the byte count the plan is currently bound to.
func (p *Plan) Bytes() int { return p.n }

// Root returns the broadcast root the plan was built for.
func (p *Plan) Root() int { return p.root }

// Decision returns the resolved tuner decision.
func (p *Plan) Decision() tune.Decision { return p.dec }

// Program generates the planned algorithm's whole-world static schedule,
// or returns nil when its communication pattern depends on runtime
// communicator state. The plan itself keeps only this rank's ops, so
// every call builds the schedule afresh.
func (p *Plan) Program() *sched.Program {
	if p.reg.Program == nil {
		return nil
	}
	pr, err := p.reg.Program(p.size, p.root, p.n, p.dec.SegSize)
	if err != nil {
		return nil
	}
	return pr
}
