package core

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/topology"
)

// This file contains extensions beyond the paper: a node-aware ring
// ordering (reducing inter-node ring crossings to one per node) and a
// pipelined chain broadcast (a classic long-message baseline the
// evaluation can be compared against).

// NodeAwareOrder returns a permutation perm (virtual ring position ->
// actual rank) that lays the ring out node by node, so consecutive ring
// neighbours share a node wherever possible and the ring crosses node
// boundaries exactly NumNodes times. Within a node, ranks keep ascending
// order. For a blocked placement this is the identity.
func NodeAwareOrder(topo *topology.Map) []int {
	perm := make([]int, 0, topo.NP())
	for node := 0; node < topo.NumNodes(); node++ {
		perm = append(perm, topo.RanksOnNode(node)...)
	}
	return perm
}

// positionOf returns the index of rank in perm.
func positionOf(perm []int, rank int) int {
	for pos, r := range perm {
		if r == rank {
			return pos
		}
	}
	return -1
}

// nodeAwareProgram generates a scatter-ring broadcast whose ring order
// follows NodeAwareOrder instead of rank order.
func nodeAwareProgram(gen func(p, root, n int) *sched.Program, topo *topology.Map, root, n int, name string) (*sched.Program, error) {
	perm := NodeAwareOrder(topo)
	rootPos := positionOf(perm, root)
	if rootPos < 0 {
		return nil, fmt.Errorf("core: node-aware order: root %d not placed", root)
	}
	pr, err := sched.Relabel(gen(topo.NP(), rootPos, n), perm)
	if err != nil {
		return nil, err
	}
	pr.Name = name
	return pr, nil
}

// BcastOptNodeAware is the tuned broadcast with a node-aware ring order —
// an extension beyond the paper that composes its bandwidth saving with
// placement awareness. On blocked placements it equals BcastOptProgram;
// on scattered placements (e.g. round-robin) it restores the blocked
// ring's inter-node profile.
func BcastOptNodeAware(topo *topology.Map, root, n int) (*sched.Program, error) {
	return nodeAwareProgram(BcastOptProgram, topo, root, n, "bcast-opt-nodeaware")
}

// BcastNativeNodeAware is the native broadcast with a node-aware ring
// order, isolating the reordering gain from the tuned-ring gain.
func BcastNativeNodeAware(topo *topology.Map, root, n int) (*sched.Program, error) {
	return nodeAwareProgram(BcastNativeProgram, topo, root, n, "bcast-native-nodeaware")
}

// DefaultChainSegment is the segment size used by ChainBcast when the
// caller passes segSize <= 0 (a typical pipeline depth trade-off).
const DefaultChainSegment = 8 << 10

// ChainOps is the per-rank form of ChainBcast. An empty buffer sends
// nothing: the chain has no segments to stream.
func ChainOps(ops []sched.Op, p, root, n, segSize, rank int) []sched.Op {
	if segSize <= 0 {
		segSize = DefaultChainSegment
	}
	rel := RelRank(rank, root, p)
	for s := 0; s*segSize < n; s++ {
		off := s * segSize
		length := min(segSize, n-off)
		if rel > 0 {
			ops = append(ops, sched.Op{
				Kind: sched.OpRecv, From: AbsRank(rel-1, root, p),
				RecvOff: off, RecvLen: length,
				Tag: TagChain, Step: s + 1,
			})
		}
		if rel < p-1 {
			ops = append(ops, sched.Op{
				Kind: sched.OpSend, To: AbsRank(rel+1, root, p),
				SendOff: off, SendLen: length,
				Tag: TagChain, Step: s + 1,
			})
		}
	}
	return ops
}

// ChainBcast generates the segmented pipeline-chain broadcast: the buffer
// is cut into ceil(n/segSize) segments; relative rank r receives each
// segment from r-1 and forwards it to r+1, interleaving receive and
// forward so segments stream down the chain. It is the classic
// long-message broadcast baseline (one full wavefront of latency, then
// bandwidth-bound), against which the scatter-ring family is compared in
// the extension benchmarks.
func ChainBcast(p, root, n, segSize int) *sched.Program {
	return build("chain-bcast", p, root, n, func(ops []sched.Op, rank int) []sched.Op {
		return ChainOps(ops, p, root, n, segSize, rank)
	})
}
