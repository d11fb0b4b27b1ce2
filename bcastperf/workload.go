package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/tune"
)

// workload is one benchmark configuration. Everything except the payload
// bytes and the order persistent handles are drawn in is fixed by the
// name; the seed supplies those two.
type workload struct {
	name       string
	np         int
	placement  string // bcast.Placement spec
	pooled     bool   // pooled executor; one goroutine per rank otherwise
	transport  string // bcast.WithTransport spec
	persistent bool   // one BcastInit per size and a seeded handle per round
	sizes      []int
}

// The three workloads load different layers (see NOTES.json): lmsg is
// bytes-bound on the rendezvous copy path, mmsg-npof2 is message-count
// bound on eager staging and the pooled executor, and wire-udp is the
// only one whose messages cross internal/transport.
var workloads = []workload{
	{name: "lmsg", np: 24, placement: "blocked:8", pooled: true, transport: "chan", sizes: []int{4 << 20}},
	{name: "mmsg-npof2", np: 33, placement: "blocked:11", pooled: true, transport: "chan", persistent: true, sizes: mediumSizes(12)},
	{name: "wire-udp", np: 8, placement: "single", transport: "udp", sizes: []int{1 << 20}},
}

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// mediumSizes spaces k sizes geometrically over MPICH3's medium range,
// [ShortMsgSize, LongMsgSize), both ends included, so most of them leave
// an uneven last chunk at any rank count.
func mediumSizes(k int) []int {
	lo, hi := float64(tune.ShortMsgSize), float64(tune.LongMsgSize-1)
	out := make([]int, k)
	for i := range out {
		out[i] = int(math.Round(lo * math.Pow(hi/lo, float64(i)/float64(k-1))))
	}
	return out
}

func (wl workload) topology() (*topology.Map, error) {
	pl, err := tune.ParsePlacement(wl.placement)
	if err != nil {
		return nil, err
	}
	return pl.Map(wl.np)
}

// inputs holds one run's seeded payloads and the per-handle use counts
// that pick which payload variant each round broadcasts.
type inputs struct {
	// want[h] is the root's payload for handle h and its bytewise
	// complement. A handle alternates between the two on every use, so
	// each broadcast must rewrite every byte of every non-root buffer: a
	// byte it failed to deliver still holds the other variant and fails
	// the check.
	want [][2][]byte
	rng  *rand.Rand
	uses []int
}

func newInputs(wl workload, seed uint64) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	base := make([]byte, slices.Max(wl.sizes)+8)
	for i := 0; i+8 <= len(base); i += 8 {
		binary.LittleEndian.PutUint64(base[i:], rng.Uint64())
	}
	in := &inputs{rng: rng, uses: make([]int, len(wl.sizes))}
	for _, n := range wl.sizes {
		inv := make([]byte, n)
		for i := range inv {
			inv[i] = ^base[i]
		}
		in.want = append(in.want, [2][]byte{base[:n:n], inv})
	}
	return in
}

// draw returns the handle and payload variant of up to n next rounds:
// handles drawn uniformly by the seed, or every handle once in order
// when inOrder is set (the warm round). Nothing is consumed until commit.
func (in *inputs) draw(n int, inOrder bool) (handle, variant []uint8) {
	handle = make([]uint8, n)
	variant = make([]uint8, n)
	uses := slices.Clone(in.uses)
	for i := range handle {
		h := 0
		switch {
		case inOrder:
			h = i
		case len(uses) > 1:
			h = in.rng.IntN(len(uses))
		}
		handle[i], variant[i] = uint8(h), uint8(uses[h]%2)
		uses[h]++
	}
	return handle, variant
}

// commit records that the first done rounds of handle ran, so the next
// draw continues each handle's variant alternation.
func (in *inputs) commit(handle []uint8, done int) {
	for _, h := range handle[:done] {
		in.uses[h]++
	}
}

// allocBufs gives every rank its own zeroed buffer per handle.
func allocBufs(wl workload) [][][]byte {
	bufs := make([][][]byte, wl.np)
	for r := range bufs {
		bufs[r] = make([][]byte, len(wl.sizes))
		for h, n := range wl.sizes {
			bufs[r][h] = make([]byte, n)
		}
	}
	return bufs
}

// traffic is what broadcasts move, as the resolved schedule predicts it
// or as a layer counted it.
type traffic struct {
	msgs, bytes, inter int64
	eagerBytes         int64 // bytes of messages at or below the engine's eager limit
}

func (t *traffic) add(o traffic) {
	t.msgs += o.msgs
	t.bytes += o.bytes
	t.inter += o.inter
	t.eagerBytes += o.eagerBytes
}

// scheduleTraffic walks every send half of a static schedule.
func scheduleTraffic(pr *sched.Program, topo *topology.Map) traffic {
	var t traffic
	for r := 0; r < pr.P; r++ {
		for _, op := range pr.OpsOf(r) {
			if op.Kind != sched.OpSend && op.Kind != sched.OpSendrecv {
				continue
			}
			n := int64(op.SendLen)
			t.msgs++
			t.bytes += n
			if !topo.SameNode(r, op.To) {
				t.inter += n
			}
			if op.SendLen <= engine.DefaultEagerLimit {
				t.eagerBytes += n
			}
		}
	}
	return t
}

// predict returns each handle's per-broadcast traffic from the schedule
// of the algorithm the facade resolved for it.
func predict(wl workload, topo *topology.Map, decide func(n int) (alg string, seg int)) ([]traffic, error) {
	out := make([]traffic, len(wl.sizes))
	for h, n := range wl.sizes {
		alg, seg := decide(n)
		reg, ok := collective.Lookup(alg)
		if !ok || reg.Program == nil {
			return nil, fmt.Errorf("algorithm %q has no static schedule", alg)
		}
		pr, err := reg.Program(wl.np, 0, n, seg)
		if err != nil {
			return nil, fmt.Errorf("schedule of %q for %d bytes: %w", alg, n, err)
		}
		out[h] = scheduleTraffic(pr, topo)
	}
	return out, nil
}

// expected sums the predicted traffic of the first done rounds.
func expected(pred []traffic, handle []uint8, done int) traffic {
	var t traffic
	for _, h := range handle[:done] {
		t.add(pred[h])
	}
	return t
}
