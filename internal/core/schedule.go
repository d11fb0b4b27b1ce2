package core

import (
	"fmt"

	"repro/internal/sched"
)

// Reserved message tags the generated schedules stamp on their messages.
// internal/collective executes these schedules (and its SMP broadcast and
// barrier reuse the binomial, ring and barrier tags), so a trace recorded
// there can be matched phase by phase against a schedule generated here.
const (
	// TagScatter marks binomial-scatter-phase messages.
	TagScatter = 0x7F01
	// TagRing marks ring-allgather-phase messages (native and tuned).
	TagRing = 0x7F02
	// TagRdb marks recursive-doubling allgather messages.
	TagRdb = 0x7F03
	// TagBinomial marks whole-buffer binomial broadcast messages.
	TagBinomial = 0x7F04
	// TagBarrier marks dissemination-barrier messages.
	TagBarrier = 0x7F05
	// TagChain marks pipelined-chain broadcast messages (extension).
	TagChain = 0x7F0A
)

func checkArgs(p, root, n int) {
	if p <= 0 {
		panic(fmt.Sprintf("core: schedule requires p > 0, got %d", p))
	}
	if root < 0 || root >= p {
		panic(fmt.Sprintf("core: root %d out of range for p=%d", root, p))
	}
	if n < 0 {
		panic(fmt.Sprintf("core: schedule requires n >= 0, got %d", n))
	}
}

// coverEnd returns the byte offset just past the last chunk relative rank
// rel receives in the scatter phase (its subtree's end, clamped to n).
func coverEnd(l Layout, rel, p int) int {
	_, hi := OwnedChunks(rel, p)
	return l.Disp(hi)
}

// Every broadcast generator comes in two forms. The per-rank form
// (BcastOptOps, ...) appends the ops one rank executes to a caller's
// slice, so a runtime can generate just its own rank's schedule into
// reusable scratch; it assumes valid arguments (0 <= root < p, n >= 0).
// The whole-world form (BcastOptProgram, ...) validates the arguments
// and assembles every rank's per-rank ops into a Program for the
// verifier, the simulator and the tuner.

// build assembles a whole-world Program from a per-rank generator.
func build(name string, p, root, n int, gen func(ops []sched.Op, rank int) []sched.Op) *sched.Program {
	checkArgs(p, root, n)
	pr := sched.New(name, p, n, root)
	for rank := range pr.Ranks {
		pr.Ranks[rank] = gen(nil, rank)
	}
	return pr
}

// treeOps appends rank's ops on the binomial tree rooted at root: the
// receive from its parent, then the sends to its children, largest
// subtree first. The whole-buffer broadcast (scatter=false) moves all n
// bytes over every edge; the scatter moves each subtree's chunk range,
// clamped to the buffer, and omits an edge whose range is empty (MPICH
// only posts the send/recv pair when send_size > 0).
func treeOps(ops []sched.Op, p, root, n, rank int, scatter bool) []sched.Op {
	l := NewLayout(n, p)
	tag := TagBinomial
	if scatter {
		tag = TagScatter
	}
	// span is the byte range the edge into relative rank rel carries.
	span := func(rel int) (off, length int) {
		if !scatter {
			return 0, n
		}
		return l.Disp(rel), coverEnd(l, rel, p) - l.Disp(rel)
	}
	rel := RelRank(rank, root, p)
	recvMask := CeilPow2(p)
	if rel != 0 {
		recvMask = rel & (-rel) // lowest set bit: distance to parent
		if off, length := span(rel); !scatter || length > 0 {
			ops = append(ops, sched.Op{
				Kind: sched.OpRecv, From: AbsRank(rel-recvMask, root, p),
				RecvOff: off, RecvLen: length, Tag: tag,
			})
		}
	}
	for mask := recvMask >> 1; mask > 0; mask >>= 1 {
		child := rel + mask
		if child >= p {
			continue
		}
		if off, length := span(child); !scatter || length > 0 {
			ops = append(ops, sched.Op{
				Kind: sched.OpSend, To: AbsRank(child, root, p),
				SendOff: off, SendLen: length, Tag: tag,
			})
		}
	}
	return ops
}

// ScatterSchedule generates the binomial scatter tree of Figures 1 and 2:
// the root splits the buffer into P chunks and sends each subtree's chunk
// range down the tree; relative rank rel ends up holding chunks
// [rel, rel+Extent(rel)).
//
// Messages carry exactly the bytes MPICH's scatter_for_bcast transfers:
// the subtree byte range clamped to the buffer, and a transfer is omitted
// entirely when uneven division leaves it empty.
func ScatterSchedule(p, root, n int) *sched.Program {
	return build("binomial-scatter", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return treeOps(ops, p, root, n, rank, true)
	})
}

// BinomialOps is the per-rank form of BinomialBcast.
func BinomialOps(ops []sched.Op, p, root, n, rank int) []sched.Op {
	return treeOps(ops, p, root, n, rank, false)
}

// BinomialBcast generates the whole-buffer binomial-tree broadcast MPICH
// uses for short messages (and for communicators smaller than
// MinRingProcs): every message carries all n bytes.
func BinomialBcast(p, root, n int) *sched.Program {
	return build("binomial-bcast", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return BinomialOps(ops, p, root, n, rank)
	})
}

// RingAllgatherNative generates the enclosed-ring allgather of Figure 3:
// every rank runs P-1 Sendrecv steps, forwarding in step i the chunk it
// received in step i-1 (starting from its own chunk), regardless of what
// it already owns from the scatter phase. Exactly P messages flow in every
// step, P*(P-1) in total — the waste the paper eliminates.
func RingAllgatherNative(p, root, n int) *sched.Program {
	return build("ring-allgather-native", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return segRingOps(ops, p, root, n, wholeChunks(n), rank, false)
	})
}

// RingAllgatherTuned generates the paper's non-enclosed ring allgather
// (Figures 4 and 5, Listing 1): the same P-1-step ring as
// RingAllgatherNative, except that each rank computes (step, flag) with
// ComputeStepFlag and, once i > P - step, degenerates to send-only
// (subtree roots, which already own the incoming chunks) or receive-only
// (their left neighbours, whose outgoing chunks the subtree root does not
// need).
func RingAllgatherTuned(p, root, n int) *sched.Program {
	return build("ring-allgather-tuned", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return segRingOps(ops, p, root, n, wholeChunks(n), rank, true)
	})
}

// rdbOps is the per-rank form of RdbAllgather; p must be a power of two.
func rdbOps(ops []sched.Op, p, root, n, rank int) []sched.Op {
	if !IsPow2(p) {
		panic(fmt.Sprintf("core: RdbAllgather requires power-of-two p, got %d", p))
	}
	l := NewLayout(n, p)
	rel := RelRank(rank, root, p)
	step := 1
	for mask := 1; mask < p; mask <<= 1 {
		relDst := rel ^ mask
		dst := AbsRank(relDst, root, p)
		myRoot := rel &^ (mask - 1)
		dstRoot := relDst &^ (mask - 1)
		sendOff := l.Disp(myRoot)
		recvOff := l.Disp(dstRoot)
		ops = append(ops, sched.Op{
			Kind: sched.OpSendrecv,
			To:   dst, SendOff: sendOff, SendLen: l.Disp(myRoot+mask) - sendOff,
			From: dst, RecvOff: recvOff, RecvLen: l.Disp(dstRoot+mask) - recvOff,
			Tag: TagRdb, Step: step,
		})
		step++
	}
	return ops
}

// RdbAllgather generates the recursive-doubling allgather MPICH uses for
// medium messages with power-of-two communicators: in round k (mask =
// 2^k), relative rank rel exchanges its current 2^k-chunk block with
// partner rel XOR mask, doubling the owned block each round. p must be a
// power of two.
func RdbAllgather(p, root, n int) *sched.Program {
	return build("rdb-allgather", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return rdbOps(ops, p, root, n, rank)
	})
}

// BcastNativeOps is the per-rank form of BcastNativeProgram.
func BcastNativeOps(ops []sched.Op, p, root, n, rank int) []sched.Op {
	return BcastNativeSegOps(ops, p, root, n, wholeChunks(n), rank)
}

// BcastNativeProgram is the full native long-message broadcast: binomial
// scatter followed by the enclosed ring allgather (MPI_Bcast_native).
func BcastNativeProgram(p, root, n int) *sched.Program {
	return build("bcast-native", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return BcastNativeOps(ops, p, root, n, rank)
	})
}

// BcastOptOps is the per-rank form of BcastOptProgram.
func BcastOptOps(ops []sched.Op, p, root, n, rank int) []sched.Op {
	return BcastOptSegOps(ops, p, root, n, wholeChunks(n), rank)
}

// BcastOptProgram is the paper's tuned broadcast: binomial scatter
// followed by the non-enclosed ring allgather (MPI_Bcast_opt).
func BcastOptProgram(p, root, n int) *sched.Program {
	return build("bcast-opt", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return BcastOptOps(ops, p, root, n, rank)
	})
}

// BcastRdbOps is the per-rank form of BcastRdbProgram.
func BcastRdbOps(ops []sched.Op, p, root, n, rank int) []sched.Op {
	return rdbOps(treeOps(ops, p, root, n, rank, true), p, root, n, rank)
}

// BcastRdbProgram is MPICH's medium-message power-of-two broadcast:
// binomial scatter followed by recursive-doubling allgather.
func BcastRdbProgram(p, root, n int) *sched.Program {
	return build("bcast-scatter-rdb", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return BcastRdbOps(ops, p, root, n, rank)
	})
}
