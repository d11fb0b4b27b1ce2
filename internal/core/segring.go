package core

import "repro/internal/sched"

// This file generalizes segmentation from the chain broadcast to the
// scatter-ring family: segmented variants of the enclosed (native) and
// non-enclosed (tuned) ring allgathers that pipeline each ring step in
// segSize pieces. The ring structure — P-1 steps, each circulating one
// chunk per rank — is unchanged; every chunk transfer is split into
// ceil(chunk/segSize) back-to-back segment messages, so large rendezvous
// transfers become a stream of smaller ones that overlap inside each
// step's concurrent send/receive halves and across the engine's eager
// window. With segSize >= ceil(n/P) every chunk is a single segment and
// the schedules are identical to their unsegmented counterparts.

// wholeChunks is a segment size that leaves every chunk of an n-byte
// buffer in one piece: the segmented ring at this size is the unsegmented
// ring, message for message.
func wholeChunks(n int) int { return n + 1 }

// DefaultRingSegment is the segment size used by the segmented ring
// allgathers when the caller passes segSize <= 0. It matches the engine's
// default eager limit, so default-segmented chunks take the eager path.
const DefaultRingSegment = 64 << 10

// RingSegments returns how many segments a count-byte chunk is cut into
// at the given segment size. Empty chunks still occupy one zero-byte
// round, mirroring the enclosed ring's zero-byte envelopes.
func RingSegments(count, segSize int) int {
	if count <= 0 {
		return 1
	}
	return (count + segSize - 1) / segSize
}

// SegSpan returns the offset and length of segment s within a count-byte
// chunk (offset relative to the chunk start). The final segment may be
// short; the single segment of an empty chunk is zero-length.
func SegSpan(count, segSize, s int) (off, length int) {
	off = s * segSize
	if off > count {
		off = count
	}
	length = count - off
	if length > segSize {
		length = segSize
	}
	return off, length
}

// segRingOps appends rank's ops of the segmented ring allgather. With
// tuned=false the rank runs the full enclosed exchange; with tuned=true it
// computes (step, flag) and degenerates to send-only or receive-only for
// its final step-1 ring steps, exactly like RingAllgatherTuned — the
// degeneration applies to every segment of the affected steps.
func segRingOps(ops []sched.Op, p, root, n, segSize, rank int, tuned bool) []sched.Op {
	if segSize <= 0 {
		segSize = DefaultRingSegment
	}
	l := NewLayout(n, p)
	var sf StepFlag
	if tuned {
		sf = ComputeStepFlag(RelRank(rank, root, p), p)
	}
	left, right := (rank-1+p)%p, (rank+1)%p
	j, jnext := rank, left
	for i := 1; i < p; i++ {
		relJ := RelRank(j, root, p)
		relJnext := RelRank(jnext, root, p)
		sendCnt, recvCnt := l.Count(relJ), l.Count(relJnext)
		sendDisp, recvDisp := l.Disp(relJ), l.Disp(relJnext)

		doSend, doRecv := true, true
		if tuned && sf.Step > p-i {
			doSend, doRecv = !sf.RecvOnly, sf.RecvOnly
		}
		sendSegs, recvSegs := 0, 0
		if doSend {
			sendSegs = RingSegments(sendCnt, segSize)
		}
		if doRecv {
			recvSegs = RingSegments(recvCnt, segSize)
		}
		for s := 0; s < max(sendSegs, recvSegs); s++ {
			op := sched.Op{Tag: TagRing, Step: i}
			sOK, rOK := s < sendSegs, s < recvSegs
			if sOK {
				off, length := SegSpan(sendCnt, segSize, s)
				op.To, op.SendOff, op.SendLen = right, sendDisp+off, length
			}
			if rOK {
				off, length := SegSpan(recvCnt, segSize, s)
				op.From, op.RecvOff, op.RecvLen = left, recvDisp+off, length
			}
			switch {
			case sOK && rOK:
				op.Kind = sched.OpSendrecv
			case rOK:
				op.Kind = sched.OpRecv
			default:
				op.Kind = sched.OpSend
			}
			ops = append(ops, op)
		}
		j = jnext
		jnext = (jnext - 1 + p) % p
	}
	return ops
}

// RingAllgatherNativeSeg generates the segmented enclosed ring allgather:
// RingAllgatherNative with every chunk transfer pipelined in segSize
// pieces.
func RingAllgatherNativeSeg(p, root, n, segSize int) *sched.Program {
	return build("ring-allgather-native-seg", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return segRingOps(ops, p, root, n, segSize, rank, false)
	})
}

// RingAllgatherTunedSeg generates the segmented non-enclosed ring
// allgather: the paper's tuned ring with every retained chunk transfer
// pipelined in segSize pieces. The ownership-aware skips apply to whole
// steps, so the tuned saving carries over segment by segment.
func RingAllgatherTunedSeg(p, root, n, segSize int) *sched.Program {
	return build("ring-allgather-tuned-seg", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return segRingOps(ops, p, root, n, segSize, rank, true)
	})
}

// BcastNativeSegOps is the per-rank form of BcastNativeSegProgram.
func BcastNativeSegOps(ops []sched.Op, p, root, n, segSize, rank int) []sched.Op {
	return segRingOps(treeOps(ops, p, root, n, rank, true), p, root, n, segSize, rank, false)
}

// BcastNativeSegProgram is the segmented native broadcast: binomial
// scatter followed by the segmented enclosed ring allgather.
func BcastNativeSegProgram(p, root, n, segSize int) *sched.Program {
	return build("bcast-native-seg", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return BcastNativeSegOps(ops, p, root, n, segSize, rank)
	})
}

// BcastOptSegOps is the per-rank form of BcastOptSegProgram.
func BcastOptSegOps(ops []sched.Op, p, root, n, segSize, rank int) []sched.Op {
	return segRingOps(treeOps(ops, p, root, n, rank, true), p, root, n, segSize, rank, true)
}

// BcastOptSegProgram is the segmented tuned broadcast: binomial scatter
// followed by the segmented non-enclosed ring allgather.
func BcastOptSegProgram(p, root, n, segSize int) *sched.Program {
	return build("bcast-opt-seg", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return BcastOptSegOps(ops, p, root, n, segSize, rank)
	})
}
