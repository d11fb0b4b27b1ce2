package collective

import (
	"fmt"
	"sync"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// ExecProgram executes the calling rank's portion of a generated
// communication schedule against the communicator, moving real bytes in
// buf. Any program — including relabelled extensions like the node-aware
// ring — runs on the real engine through it, by the same interpreter
// every registered static broadcast executes on.
//
// Every rank of the communicator must call ExecProgram with the same
// program. The buffer must be at least pr.N bytes.
func ExecProgram(c mpi.Comm, pr *sched.Program, buf []byte) error {
	if pr.P != c.Size() {
		return fmt.Errorf("collective: exec: program has %d ranks, communicator %d", pr.P, c.Size())
	}
	if len(buf) < pr.N {
		return fmt.Errorf("collective: exec: buffer %d bytes, program needs %d", len(buf), pr.N)
	}
	return execOps(c, pr.Name, pr.OpsOf(c.Rank()), buf)
}

// execOps is the schedule interpreter: it runs one rank's ops in order,
// each as the blocking Send, Recv or Sendrecv its kind names, and checks
// every receive delivered exactly the bytes the schedule says.
func execOps(c mpi.Comm, name string, ops []sched.Op, buf []byte) error {
	for i, op := range ops {
		var st mpi.Status
		var err error
		switch op.Kind {
		case sched.OpSend:
			err = c.Send(buf[op.SendOff:op.SendOff+op.SendLen], op.To, op.Tag)
		case sched.OpRecv:
			st, err = c.Recv(buf[op.RecvOff:op.RecvOff+op.RecvLen], op.From, op.Tag)
		case sched.OpSendrecv:
			st, err = c.Sendrecv(
				buf[op.SendOff:op.SendOff+op.SendLen], op.To, op.Tag,
				buf[op.RecvOff:op.RecvOff+op.RecvLen], op.From, op.Tag)
		default:
			err = fmt.Errorf("unknown kind %d", op.Kind)
		}
		if err != nil {
			return fmt.Errorf("collective: exec %q rank %d op %d: %w", name, c.Rank(), i, err)
		}
		if op.Kind != sched.OpSend && st.Count != op.RecvLen {
			return fmt.Errorf("collective: exec %q rank %d op %d: received %d bytes, schedule says %d",
				name, c.Rank(), i, st.Count, op.RecvLen)
		}
	}
	return nil
}

// execBcast runs the calling rank's ops of one static broadcast. Like
// every collective it claims one tag stream, so consecutive broadcasts on
// a communicator never match each other's messages.
func execBcast(c mpi.Comm, name string, ops []sched.Op, buf []byte) error {
	if c.Size() > 1 {
		mpi.AdvanceTagStream(c)
	}
	return execOps(c, name, ops, buf)
}

// opsScratch recycles the per-call op slices of runStatic, so generating
// a rank's schedule allocates nothing once the slice has grown to size.
var opsScratch = sync.Pool{New: func() any { return new([]sched.Op) }}

// runStatic broadcasts buf from root by a static schedule: it generates
// only the calling rank's ops, into pooled scratch, and interprets them.
func runStatic(c mpi.Comm, buf []byte, root, segSize int, name string, gen OpsFunc) error {
	if err := checkRoot(c, root); err != nil {
		return err
	}
	sp := opsScratch.Get().(*[]sched.Op)
	*sp = gen((*sp)[:0], c.Size(), root, len(buf), segSize, c.Rank())
	err := execBcast(c, name, *sp, buf)
	opsScratch.Put(sp)
	return err
}
