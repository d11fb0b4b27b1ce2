// Package sched defines a communication-schedule intermediate
// representation (IR) for collective algorithms.
//
// A Program is the complete, statically known communication pattern of one
// collective operation: for every rank, an ordered list of point-to-point
// operations (sends, receives, and combined send-receives) with explicit
// buffer offsets and lengths. The broadcast algorithms studied in the
// reproduced paper (binomial scatter, enclosed ring allgather, tuned
// non-enclosed ring allgather, recursive-doubling allgather) are all
// data-independent, so their entire schedule can be generated up front
// from (P, root, nbytes).
//
// Three consumers share this IR:
//
//   - internal/core generates Programs for each algorithm and derives
//     analytic traffic counts from them;
//   - the schedule verifier in this package checks deadlock-freedom and
//     data validity (no transfer may carry bytes the sender does not hold);
//   - internal/netsim replays Programs against a virtual-time network
//     model to predict completion times at paper scale.
//
// The same generators also run the broadcasts: internal/collective
// generates only the calling rank's ops of a Program and interprets them
// against the mpi.Comm interface, so the schedule the verifier checks is
// the one that moves the bytes.
package sched

import (
	"fmt"
	"strings"
)

// OpKind discriminates the three point-to-point operation shapes used by
// the broadcast algorithms.
type OpKind uint8

const (
	// OpSend is a blocking send of Program buffer bytes
	// [SendOff, SendOff+SendLen) to rank To.
	OpSend OpKind = iota
	// OpRecv is a blocking receive into [RecvOff, RecvOff+RecvLen)
	// from rank From.
	OpRecv
	// OpSendrecv is a combined operation: the send and receive halves
	// proceed concurrently and the operation completes when both have
	// completed (MPI_Sendrecv semantics).
	OpSendrecv
)

// String returns the lower-case MPI-style name of the kind.
func (k OpKind) String() string {
	switch k {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpSendrecv:
		return "sendrecv"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one point-to-point operation executed by a single rank.
//
// For OpSend only the To/Send* fields are meaningful; for OpRecv only the
// From/Recv* fields; OpSendrecv uses both halves. Zero-length operations
// are legal: MPI transfers a zero-byte payload (an envelope) and the
// paper's transfer counts include them, so the IR keeps them explicit.
type Op struct {
	Kind OpKind

	// To is the destination rank of the send half.
	To int
	// SendOff is the byte offset of the outgoing data in the collective's
	// buffer.
	SendOff int
	// SendLen is the number of outgoing bytes (may be zero).
	SendLen int

	// From is the source rank of the receive half.
	From int
	// RecvOff is the byte offset at which incoming data lands.
	RecvOff int
	// RecvLen is the number of incoming bytes (may be zero).
	RecvLen int

	// Tag is the message tag; matching sends and receives must agree.
	Tag int

	// Step is the logical algorithm step this operation belongs to
	// (1-based for ring steps, 0 for scatter-phase operations). It is
	// diagnostic only and does not affect matching.
	Step int
}

// String renders the op compactly, e.g. "sendrecv(to=3 [8,12) from=1 [0,4) tag=7)".
func (o Op) String() string {
	switch o.Kind {
	case OpSend:
		return fmt.Sprintf("send(to=%d [%d,%d) tag=%d)", o.To, o.SendOff, o.SendOff+o.SendLen, o.Tag)
	case OpRecv:
		return fmt.Sprintf("recv(from=%d [%d,%d) tag=%d)", o.From, o.RecvOff, o.RecvOff+o.RecvLen, o.Tag)
	case OpSendrecv:
		return fmt.Sprintf("sendrecv(to=%d [%d,%d) from=%d [%d,%d) tag=%d)",
			o.To, o.SendOff, o.SendOff+o.SendLen, o.From, o.RecvOff, o.RecvOff+o.RecvLen, o.Tag)
	default:
		return fmt.Sprintf("op(kind=%d)", o.Kind)
	}
}

// Program is a complete static communication schedule for one collective
// over P ranks and an N-byte buffer.
type Program struct {
	// Name identifies the generating algorithm, e.g. "ring-allgather-tuned".
	Name string
	// P is the number of participating ranks.
	P int
	// N is the collective buffer size in bytes.
	N int
	// Root is the broadcast root rank.
	Root int
	// Ranks holds the per-rank operation lists; len(Ranks) == P.
	Ranks [][]Op
}

// New returns an empty Program with per-rank op slices allocated.
func New(name string, p, n, root int) *Program {
	ranks := make([][]Op, p)
	return &Program{Name: name, P: p, N: n, Root: root, Ranks: ranks}
}

// Add appends op to rank's operation list.
func (pr *Program) Add(rank int, op Op) {
	pr.Ranks[rank] = append(pr.Ranks[rank], op)
}

// Concat returns a new Program that runs pr to completion and then next
// (per rank, next's ops are appended after pr's). Both programs must have
// identical P, N and Root.
func (pr *Program) Concat(next *Program) (*Program, error) {
	if pr.P != next.P || pr.N != next.N || pr.Root != next.Root {
		return nil, fmt.Errorf("sched: concat mismatch: (%d,%d,%d) vs (%d,%d,%d)",
			pr.P, pr.N, pr.Root, next.P, next.N, next.Root)
	}
	out := New(pr.Name+"+"+next.Name, pr.P, pr.N, pr.Root)
	for r := 0; r < pr.P; r++ {
		out.Ranks[r] = append(out.Ranks[r], pr.Ranks[r]...)
		out.Ranks[r] = append(out.Ranks[r], next.Ranks[r]...)
	}
	return out, nil
}

// MustConcat is Concat that panics on mismatch; generators use it with
// programs they construct themselves.
func (pr *Program) MustConcat(next *Program) *Program {
	out, err := pr.Concat(next)
	if err != nil {
		panic(err)
	}
	return out
}

// Stats summarizes the traffic a Program generates.
type Stats struct {
	// Messages counts individual message transfers (a Sendrecv counts as
	// one send on the sending rank; every send half is one message).
	Messages int
	// NonEmptyMessages counts messages with payload length > 0.
	NonEmptyMessages int
	// Bytes is the total payload volume over all messages.
	Bytes int
	// MaxStep is the largest Step label present.
	MaxStep int
}

// Stats computes traffic statistics by walking all send halves.
func (pr *Program) Stats() Stats {
	var s Stats
	for r := 0; r < pr.P; r++ {
		for _, op := range pr.Ranks[r] {
			if op.Step > s.MaxStep {
				s.MaxStep = op.Step
			}
			if op.Kind == OpSend || op.Kind == OpSendrecv {
				s.Messages++
				if op.SendLen > 0 {
					s.NonEmptyMessages++
				}
				s.Bytes += op.SendLen
			}
		}
	}
	return s
}

// Messages returns the total number of message transfers (send halves).
func (pr *Program) Messages() int { return pr.Stats().Messages }

// Bytes returns the total payload volume in bytes.
func (pr *Program) Bytes() int { return pr.Stats().Bytes }

// OpsOf returns rank's operation list (nil if rank is out of range).
func (pr *Program) OpsOf(rank int) []Op {
	if rank < 0 || rank >= len(pr.Ranks) {
		return nil
	}
	return pr.Ranks[rank]
}

// Validate performs structural checks: rank indices in range, offsets and
// lengths within the buffer, and globally that every send half has exactly
// one matching receive half with equal payload length (matched FIFO per
// (src, dst, tag) channel, mirroring MPI's non-overtaking rule).
func (pr *Program) Validate() error {
	if pr.P <= 0 {
		return fmt.Errorf("sched: program %q: nonpositive P=%d", pr.Name, pr.P)
	}
	if len(pr.Ranks) != pr.P {
		return fmt.Errorf("sched: program %q: len(Ranks)=%d want %d", pr.Name, len(pr.Ranks), pr.P)
	}
	if pr.Root < 0 || pr.Root >= pr.P {
		return fmt.Errorf("sched: program %q: root %d out of range", pr.Name, pr.Root)
	}
	type chanKey struct{ src, dst, tag int }
	sends := map[chanKey][]int{} // payload lengths in program order
	recvs := map[chanKey][]int{}
	for r := 0; r < pr.P; r++ {
		for i, op := range pr.Ranks[r] {
			where := func() string { return fmt.Sprintf("program %q rank %d op %d (%s)", pr.Name, r, i, op) }
			if op.Kind == OpSend || op.Kind == OpSendrecv {
				if op.To < 0 || op.To >= pr.P {
					return fmt.Errorf("sched: %s: dest out of range", where())
				}
				if op.To == r {
					return fmt.Errorf("sched: %s: self send", where())
				}
				if op.SendLen < 0 || op.SendOff < 0 || op.SendOff+op.SendLen > pr.N {
					return fmt.Errorf("sched: %s: send range outside buffer of %d bytes", where(), pr.N)
				}
				k := chanKey{r, op.To, op.Tag}
				sends[k] = append(sends[k], op.SendLen)
			}
			if op.Kind == OpRecv || op.Kind == OpSendrecv {
				if op.From < 0 || op.From >= pr.P {
					return fmt.Errorf("sched: %s: source out of range", where())
				}
				if op.From == r {
					return fmt.Errorf("sched: %s: self receive", where())
				}
				if op.RecvLen < 0 || op.RecvOff < 0 || op.RecvOff+op.RecvLen > pr.N {
					return fmt.Errorf("sched: %s: recv range outside buffer of %d bytes", where(), pr.N)
				}
				k := chanKey{op.From, r, op.Tag}
				recvs[k] = append(recvs[k], op.RecvLen)
			}
		}
	}
	for k, ss := range sends {
		rr := recvs[k]
		if len(ss) != len(rr) {
			return fmt.Errorf("sched: program %q: channel %d->%d tag %d has %d sends but %d recvs",
				pr.Name, k.src, k.dst, k.tag, len(ss), len(rr))
		}
		for i := range ss {
			if ss[i] != rr[i] {
				return fmt.Errorf("sched: program %q: channel %d->%d tag %d message %d: send %d bytes, recv %d bytes",
					pr.Name, k.src, k.dst, k.tag, i, ss[i], rr[i])
			}
		}
		delete(recvs, k)
	}
	for k := range recvs {
		return fmt.Errorf("sched: program %q: channel %d->%d tag %d has recvs without sends",
			pr.Name, k.src, k.dst, k.tag)
	}
	return nil
}

// Dump renders the whole program, one line per op, for debugging and for
// the schematic-figure tests.
func (pr *Program) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %q P=%d N=%d root=%d\n", pr.Name, pr.P, pr.N, pr.Root)
	for r := 0; r < pr.P; r++ {
		fmt.Fprintf(&b, "  rank %d:\n", r)
		for _, op := range pr.Ranks[r] {
			fmt.Fprintf(&b, "    step %d: %s\n", op.Step, op)
		}
	}
	return b.String()
}
