package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/metrics"
)

const (
	// initialRTO seeds the adaptive retransmit timeout before the first
	// RTT sample arrives (and is the fixed default when adaptation is
	// disabled via RetransmitEvery). Loopback RTTs are microseconds; the
	// first ACK round-trip collapses the estimate to scale.
	initialRTO = 20 * time.Millisecond
	// minRTO / maxRTO clamp the adaptive estimate RTO = SRTT + 4·RTTVAR.
	// The floor keeps microsecond loopback variance from degenerating
	// into a zero timeout; the ceiling bounds recovery latency on a
	// congested or lossy path.
	minRTO = 200 * time.Microsecond
	maxRTO = time.Second
	// maxBackoff caps the per-packet exponential backoff shift: a packet
	// that keeps timing out waits rto<<backoff between retransmissions,
	// at most rto<<maxBackoff (further bounded by maxBackoffRTO).
	maxBackoff = 6
	// maxBackoffRTO bounds the backoff-inflated per-packet timeout so a
	// stalled peer is still probed a few times per drain window.
	maxBackoffRTO = 2 * time.Second
	// maxCwnd caps the congestion window, and is the send window when
	// congestion control is disabled (FixedWindow's default). 256
	// packets is 2MiB of in-flight data at the max datagram size.
	maxCwnd = 256
	// minCwnd is the congestion-window floor under sustained loss.
	minCwnd = 2
	// initialCwnd is where slow start begins for a fresh flow.
	initialCwnd = 32
	// defaultAckEvery is the delayed-ack coalescing threshold: a
	// cumulative ACK is forced after this many unacknowledged in-order
	// data datagrams (AckEvery overrides; 1 restores ack-per-datagram).
	defaultAckEvery = 8
	// minAckDelay / maxAckDelay clamp the delayed-ack flush timer, which
	// tracks ~RTO/4 of the reverse flow's estimate.
	minAckDelay = 100 * time.Microsecond
	maxAckDelay = 5 * time.Millisecond
	// socketBuf is the kernel send/recv buffer size requested for
	// sockets the transport owns; sized for a full 256-packet window of
	// maximum datagrams (the kernel clamps to its rmem/wmem ceilings,
	// and retransmit covers whatever still drops).
	socketBuf = 1 << 23
	// minDrain is the floor of Close's linger bound. The effective bound
	// scales with the live retransmit timeout — max(minDrain,
	// drainRTOs·RTO) — so a backoff-inflated RTO still leaves the final
	// ACK exchange several retransmit opportunities, while a dead peer
	// cannot hang Close forever.
	minDrain  = 5 * time.Second
	drainRTOs = 64
)

// UDPConfig describes a UDP transport endpoint.
type UDPConfig struct {
	// NP is the world size (required).
	NP int
	// Hosted lists the world ranks whose bodies run in this process.
	// Nil means all ranks are hosted (single-process setups).
	Hosted []int
	// Peers maps world ranks to "host:port" addresses of the processes
	// hosting them. Ranks without an entry must be hosted locally.
	Peers map[int]string
	// Conn, when non-nil, is an already-bound socket the transport takes
	// over (the soak harness reuses its bootstrap socket so peers keep a
	// stable address). When nil the transport binds Listen.
	Conn net.PacketConn
	// Listen is the address to bind when Conn is nil; empty means an
	// ephemeral loopback port ("127.0.0.1:0").
	Listen string
	// ForceWire routes every message through the socket even for hosted
	// ranks, defaulting each rank's peer address to the transport's own
	// socket. Single-process benchmarks use this to exercise the real
	// datagram path without spawning processes.
	ForceWire bool
	// RetransmitEvery pins a fixed retransmit timeout and disables the
	// adaptive RTT estimator and per-packet backoff — the escape hatch
	// that keeps Faulty-based tests deterministic. Zero selects the
	// adaptive path (Jacobson/Karels SRTT/RTTVAR from ACK round-trips).
	RetransmitEvery time.Duration
	// AckEvery overrides the delayed-ack coalescing threshold (default
	// 8). 1 acknowledges every data datagram — the pre-adaptive wire
	// behavior, kept as a benchmark baseline.
	AckEvery int
	// FixedWindow pins the send window to a packet count and disables
	// slow-start/AIMD congestion control. Zero selects the adaptive
	// congestion window.
	FixedWindow int
	// NoBatch disables sendmmsg/recvmmsg datagram batching even when
	// the socket supports it, forcing the WriteTo/ReadFrom fallback.
	NoBatch bool
	// PacketBytes caps outbound datagram size, header included. Zero
	// selects maxDatagram (32KiB — right for loopback and jumbo-frame
	// paths); paths with a 1500-byte MTU should set a value that dodges
	// IP fragmentation. Clamped to [dataHeaderLen+1, maxDatagram];
	// receivers accept up to maxDatagram regardless.
	PacketBytes int
}

// UDP is the datagram transport backend: reliable, in-order message
// delivery over unreliable packets, per the package-level framing and
// retransmit contract. One UDP value serves every world booted on it.
type UDP struct {
	np       int
	hosted   []bool
	force    bool
	conn     net.PacketConn
	rto      time.Duration // initial (or fixed) retransmit timeout
	fixedRTO bool          // RetransmitEvery pinned: no adaptation, no backoff
	ackEvery int
	fixedWin int // >0: fixed send window, congestion control off
	payload  int // max fragment payload per datagram
	bio      *batchIO
	peers    []net.Addr

	hmu     sync.RWMutex
	handler Handler

	mu      sync.Mutex
	started bool
	closed  bool
	sflows  map[string]*sendFlow
	rflows  map[string]*recvFlow
	done    chan struct{}
	wg      sync.WaitGroup

	met atomic.Pointer[metrics.Metrics]
}

// sendFlow is the sender half of one address pair's packet stream,
// including its adaptive retransmit and congestion state.
type sendFlow struct {
	addr net.Addr

	mu      sync.Mutex
	nextSeq uint64 // next sequence number to assign (first packet is 1)
	base    uint64 // lowest unacknowledged sequence number
	pending map[uint64]*pendingPkt

	// Adaptive RTO state (Jacobson/Karels; frozen when fixedRTO).
	srtt   time.Duration
	rttvar time.Duration
	rto    time.Duration

	// Congestion state (slow start + AIMD; frozen when fixedWin > 0).
	cwnd     float64
	ssthresh float64
	recover  uint64 // loss-event fence: halve at most once per window

	// rtoNanos mirrors rto for lock-free reads by the reverse recvFlow
	// (delayed-ack timing) and the retransmit ticker.
	rtoNanos atomic.Int64

	wlist []*pendingPkt // flush scratch, guarded by mu
	wbufs [][]byte      // batch-write scratch, guarded by mu
}

// pendingPkt is a framed datagram retained until cumulatively acked.
// A zero sent time marks a packet queued beyond the send window and
// not yet written.
type pendingPkt struct {
	buf     *bufpool.Buf
	n       int
	sent    time.Time
	retx    bool  // retransmitted at least once: no RTT sample (Karn)
	backoff uint8 // exponential-backoff shift applied to the next timeout
}

// recvFlow is the receiver half: in-order delivery position, held
// out-of-order datagrams, the current message reassembly buffer, and
// the delayed-ack state.
type recvFlow struct {
	addr net.Addr
	// peer is the reverse sendFlow, for RTO-derived ack delay. Atomic
	// because it is bound under t.mu but read under only f.mu (taking
	// both would invert the handler→Send lock order). Nil until the
	// first outbound packet to this address.
	peer atomic.Pointer[sendFlow]

	mu      sync.Mutex
	nextSeq uint64
	ooo     map[uint64]*bufpool.Buf
	asm     *bufpool.Buf
	asmGot  int

	unacked int       // in-order data datagrams since the last ack sent
	ackDue  time.Time // deadline for the delayed cumulative ack; zero when none pending

	// dupAck is the cumulative position last re-acked for a duplicate,
	// and dupAckAt when: duplicates arriving within an ack delay of that
	// re-ack, at the same position, are answered by it.
	dupAck   uint64
	dupAckAt time.Time
}

// NewUDP builds a UDP transport from cfg. The transport is idle until
// Start; Send may be called before Start (outbound only).
func NewUDP(cfg UDPConfig) (*UDP, error) {
	if cfg.NP <= 0 {
		return nil, fmt.Errorf("transport: non-positive world size %d", cfg.NP)
	}
	conn := cfg.Conn
	if conn == nil {
		listen := cfg.Listen
		if listen == "" {
			listen = "127.0.0.1:0"
		}
		var err error
		conn, err = net.ListenPacket("udp", listen)
		if err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
	}
	if uc, ok := conn.(*net.UDPConn); ok {
		// Best effort: absorb a full send window without loopback drops.
		_ = uc.SetReadBuffer(socketBuf)
		_ = uc.SetWriteBuffer(socketBuf)
	}
	rto := cfg.RetransmitEvery
	if rto <= 0 {
		rto = initialRTO
	}
	ackEvery := cfg.AckEvery
	if ackEvery <= 0 {
		ackEvery = defaultAckEvery
	}
	pkt := cfg.PacketBytes
	if pkt <= dataHeaderLen || pkt > maxDatagram {
		pkt = maxDatagram
	}
	t := &UDP{
		np:       cfg.NP,
		force:    cfg.ForceWire,
		conn:     conn,
		rto:      rto,
		fixedRTO: cfg.RetransmitEvery > 0,
		ackEvery: ackEvery,
		fixedWin: cfg.FixedWindow,
		payload:  pkt - dataHeaderLen,
		hosted:   make([]bool, cfg.NP),
		peers:    make([]net.Addr, cfg.NP),
		sflows:   make(map[string]*sendFlow),
		rflows:   make(map[string]*recvFlow),
		done:     make(chan struct{}),
	}
	if !cfg.NoBatch {
		t.bio = newBatchIO(conn)
	}
	if cfg.Hosted == nil {
		for r := range t.hosted {
			t.hosted[r] = true
		}
	} else {
		for _, r := range cfg.Hosted {
			if r < 0 || r >= cfg.NP {
				conn.Close()
				return nil, fmt.Errorf("transport: hosted rank %d out of range [0,%d)", r, cfg.NP)
			}
			t.hosted[r] = true
		}
	}
	for r, spec := range cfg.Peers {
		if r < 0 || r >= cfg.NP {
			conn.Close()
			return nil, fmt.Errorf("transport: peer rank %d out of range [0,%d)", r, cfg.NP)
		}
		addr, err := net.ResolveUDPAddr("udp", spec)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: peer %d: %w", r, err)
		}
		t.peers[r] = addr
	}
	if cfg.ForceWire {
		self := conn.LocalAddr()
		for r := range t.peers {
			if t.peers[r] == nil {
				t.peers[r] = self
			}
		}
	}
	for r := range t.peers {
		if t.peers[r] == nil && !t.hosted[r] {
			conn.Close()
			return nil, fmt.Errorf("transport: rank %d is neither hosted nor addressed", r)
		}
	}
	return t, nil
}

// SelfUDP builds a single-process UDP transport hosting all np ranks
// with ForceWire on: every message crosses the process's own socket, so
// benchmarks and tests exercise the full framing/reliability path
// without spawning processes.
func SelfUDP(np int) (*UDP, error) {
	return NewUDP(UDPConfig{NP: np, ForceWire: true})
}

// SelfUDPBase builds SelfUDP with the pre-adaptive wire behavior: fixed
// 20ms retransmit timeout, fixed 256-packet send window, one ACK per
// data datagram, 8KiB datagrams, and one WriteTo/ReadFrom syscall per
// datagram. It is the comparison baseline for the adaptive path
// (BenchmarkWireThroughput and the "udp-base" CLI spelling), not a
// deployment configuration.
func SelfUDPBase(np int) (*UDP, error) {
	return NewUDP(UDPConfig{
		NP: np, ForceWire: true,
		RetransmitEvery: initialRTO,
		FixedWindow:     maxCwnd,
		AckEvery:        1,
		NoBatch:         true,
		PacketBytes:     basePacket,
	})
}

// Name implements Transport.
func (t *UDP) Name() string { return UDPName }

// Addr returns the transport's bound socket address — what peers put in
// their UDPConfig.Peers entries.
func (t *UDP) Addr() net.Addr { return t.conn.LocalAddr() }

// Hosted implements Transport.
func (t *UDP) Hosted(rank int) bool {
	return rank >= 0 && rank < t.np && t.hosted[rank]
}

// Wire implements Transport: unhosted ranks always cross the wire, and
// ForceWire routes hosted ranks through the socket too.
func (t *UDP) Wire(dst int) bool {
	if dst < 0 || dst >= t.np {
		return false
	}
	return t.force || !t.hosted[dst]
}

// BindMetrics points wire counters at m (shard 0: wire activity is
// process-level, not rank-level). The engine binds its world's Metrics
// here at boot; nil detaches.
func (t *UDP) BindMetrics(m *metrics.Metrics) { t.met.Store(m) }

func (t *UDP) count(c metrics.Counter, v int64) {
	if m := t.met.Load(); m != nil {
		m.Add(0, c, v)
	}
}

func (t *UDP) gauge(c metrics.Counter, v int64) {
	if m := t.met.Load(); m != nil {
		m.Max(0, c, v)
	}
}

// Start implements Transport: installs h and launches the receive and
// retransmit loops (once; a later Start only replaces the handler).
func (t *UDP) Start(h Handler) error {
	t.hmu.Lock()
	t.handler = h
	t.hmu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("transport: udp transport is closed")
	}
	if !t.started {
		t.started = true
		t.wg.Add(2)
		go t.recvLoop()
		go t.tickLoop()
	}
	return nil
}

// window is the flow's current send window in packets. Callers hold
// f.mu.
func (f *sendFlow) window(fixedWin int) uint64 {
	if fixedWin > 0 {
		return uint64(fixedWin)
	}
	w := uint64(f.cwnd)
	if w < minCwnd {
		w = minCwnd
	}
	return w
}

// observeRTT folds one ACK round-trip sample into the Jacobson/Karels
// estimator and refreshes RTO = SRTT + 4·RTTVAR within [minRTO, maxRTO].
// Callers hold f.mu and have already excluded retransmitted packets
// (Karn's rule).
func (f *sendFlow) observeRTT(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if f.srtt == 0 {
		f.srtt = sample
		f.rttvar = sample / 2
	} else {
		d := f.srtt - sample
		if d < 0 {
			d = -d
		}
		f.rttvar = (3*f.rttvar + d) / 4
		f.srtt = (7*f.srtt + sample) / 8
	}
	rto := f.srtt + 4*f.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	f.rto = rto
	f.rtoNanos.Store(int64(rto))
}

// ccOnAck grows the congestion window for acked packets: +1 per packet
// in slow start up to ssthresh, then +acked/cwnd (AIMD additive phase),
// capped at maxCwnd. Callers hold f.mu.
func (f *sendFlow) ccOnAck(acked int) {
	if acked <= 0 {
		return
	}
	a := float64(acked)
	if f.cwnd < f.ssthresh {
		f.cwnd += a
		if f.cwnd > f.ssthresh {
			f.cwnd = f.ssthresh
		}
	} else {
		f.cwnd += a / f.cwnd
	}
	if f.cwnd > maxCwnd {
		f.cwnd = maxCwnd
	}
}

// ccOnTimeout registers a retransmit-timeout loss event: at most once
// per outstanding window (the recover fence), ssthresh and cwnd halve,
// flooring at minCwnd. It reports whether this timeout started a new
// loss event. Callers hold f.mu.
func (f *sendFlow) ccOnTimeout() bool {
	if f.base < f.recover {
		return false // still recovering from the previous halving
	}
	f.recover = f.nextSeq
	half := f.cwnd / 2
	if half < minCwnd {
		half = minCwnd
	}
	f.ssthresh = half
	f.cwnd = half
	return true
}

// noteCC publishes the flow's congestion and RTT state to the metrics
// gauges. Callers hold f.mu.
func (t *UDP) noteCC(f *sendFlow) {
	if t.met.Load() == nil {
		return
	}
	if t.fixedWin == 0 {
		w := int64(f.cwnd)
		t.gauge(metrics.WireCwndHighWater, w)
		t.gauge(metrics.WireCwndLowWaterInv, metrics.CwndLowWaterBase-w)
	}
	if !t.fixedRTO {
		t.gauge(metrics.WireSRTTMaxMicros, f.srtt.Microseconds())
		t.gauge(metrics.WireRTOMaxMicros, f.rto.Microseconds())
	}
}

// Send implements Transport: frames m into sequenced fragments on the
// destination's flow, then flushes every fragment the congestion window
// admits in one batched write. It copies m.Data before returning and
// never blocks on the receive path.
func (t *UDP) Send(m Message) error {
	if m.Dst < 0 || m.Dst >= t.np {
		return fmt.Errorf("transport: destination rank %d out of range [0,%d)", m.Dst, t.np)
	}
	addr := t.peers[m.Dst]
	if addr == nil {
		return fmt.Errorf("transport: no peer address for rank %d", m.Dst)
	}
	f := t.sendFlowFor(addr)
	f.mu.Lock()
	defer f.mu.Unlock()
	total := len(m.Data)
	off := 0
	win := f.window(t.fixedWin)
	f.wlist = f.wlist[:0]
	for {
		frag := total - off
		if frag > t.payload {
			frag = t.payload
		}
		seq := f.nextSeq
		f.nextSeq++
		n := dataHeaderLen + frag
		pb := bufpool.Get(n)
		putHeader(pb.B, header{
			seq: seq, msgID: m.MsgID, kind: m.Kind, ctx: m.Ctx,
			src: m.Src, srcWorld: m.SrcWorld, dst: m.Dst, tag: m.Tag,
			totalLen: total, offset: off,
		})
		copy(pb.B[dataHeaderLen:n], m.Data[off:off+frag])
		p := &pendingPkt{buf: pb, n: n}
		f.pending[seq] = p
		if seq < f.base+win {
			f.wlist = append(f.wlist, p)
		}
		off += frag
		if off >= total {
			break
		}
	}
	t.flushPkts(f, f.wlist)
	return nil
}

// flushPkts writes the given pending packets to f's peer — one batched
// sendmmsg when the socket supports it, WriteTo per packet otherwise —
// and stamps them for the retransmit clock. Write errors are ignored: a
// failed datagram is indistinguishable from a lost one, and retransmit
// covers both. Callers hold f.mu.
func (t *UDP) flushPkts(f *sendFlow, pkts []*pendingPkt) {
	if len(pkts) == 0 {
		return
	}
	if t.bio != nil && len(pkts) > 1 {
		f.wbufs = f.wbufs[:0]
		for _, p := range pkts {
			f.wbufs = append(f.wbufs, p.buf.B[:p.n])
		}
		if sent, calls, ok := t.bio.writeBatch(f.wbufs, f.addr); ok {
			now := time.Now()
			var bytes int64
			for _, p := range pkts[:sent] {
				p.sent = now
				bytes += int64(p.n)
			}
			if sent > 0 {
				t.count(metrics.WireDatagramsSent, int64(sent))
				t.count(metrics.WireBytesSent, bytes)
				t.count(metrics.WireBatchedWrites, int64(calls))
			}
			// Packets the kernel did not take are stamped too: the
			// retransmit clock re-offers them after the flow's RTO.
			for _, p := range pkts[sent:] {
				p.sent = now
			}
			return
		}
	}
	for _, p := range pkts {
		t.writePkt(f, p)
	}
}

// writePkt writes p to f's peer and stamps it for the retransmit clock.
// Callers hold f.mu.
func (t *UDP) writePkt(f *sendFlow, p *pendingPkt) {
	if _, err := t.conn.WriteTo(p.buf.B[:p.n], f.addr); err == nil {
		t.count(metrics.WireDatagramsSent, 1)
		t.count(metrics.WireBytesSent, int64(p.n))
	}
	p.sent = time.Now()
}

// Close implements Transport: drains unacknowledged packets — bounded
// by max(minDrain, drainRTOs·RTO) so a backoff-inflated timeout still
// gets its retransmit chances — then stops the loops, closes the
// socket, and releases every retained wire buffer.
func (t *UDP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	started := t.started
	t.mu.Unlock()
	if started {
		// The loops are still running here, so retransmits keep flowing
		// and inbound acks keep retiring packets while we wait. The bound
		// is re-evaluated each pass: backoff can inflate the live RTO
		// mid-drain.
		start := time.Now()
		for t.hasPending() && time.Since(start) < t.drainBound() {
			time.Sleep(time.Millisecond)
		}
	}
	close(t.done)
	err := t.conn.Close()
	if started {
		t.wg.Wait()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range t.sflows {
		f.mu.Lock()
		for _, p := range f.pending {
			p.buf.Release()
		}
		f.pending = make(map[uint64]*pendingPkt)
		f.mu.Unlock()
	}
	for _, f := range t.rflows {
		f.mu.Lock()
		for _, cp := range f.ooo {
			cp.Release()
		}
		f.ooo = make(map[uint64]*bufpool.Buf)
		if f.asm != nil {
			f.asm.Release()
			f.asm = nil
		}
		f.mu.Unlock()
	}
	return err
}

// drainBound is Close's linger ceiling: max(minDrain, drainRTOs times
// the largest live per-packet retransmit timeout, backoff included).
func (t *UDP) drainBound() time.Duration {
	worst := t.rto
	for _, f := range t.snapshotSendFlows() {
		f.mu.Lock()
		rto := f.rto
		for _, p := range f.pending {
			if eff := backoffRTO(rto, p.backoff); eff > worst {
				worst = eff
			}
		}
		if rto > worst {
			worst = rto
		}
		f.mu.Unlock()
	}
	if b := time.Duration(drainRTOs) * worst; b > minDrain {
		return b
	}
	return minDrain
}

// backoffRTO is the effective timeout of a packet that has already
// timed out `shift` times: rto<<shift, bounded by maxBackoffRTO.
func backoffRTO(rto time.Duration, shift uint8) time.Duration {
	eff := rto << shift
	if eff > maxBackoffRTO || eff < rto { // overflow-safe
		return maxBackoffRTO
	}
	return eff
}

// hasPending reports whether any flow still holds unacknowledged
// packets.
func (t *UDP) hasPending() bool {
	for _, f := range t.snapshotSendFlows() {
		f.mu.Lock()
		n := len(f.pending)
		f.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// snapshotSendFlows copies the send-flow list out from under t.mu so
// per-flow locks are never taken while holding the transport lock.
func (t *UDP) snapshotSendFlows() []*sendFlow {
	t.mu.Lock()
	defer t.mu.Unlock()
	flows := make([]*sendFlow, 0, len(t.sflows))
	for _, f := range t.sflows {
		flows = append(flows, f)
	}
	return flows
}

func (t *UDP) snapshotRecvFlows() []*recvFlow {
	t.mu.Lock()
	defer t.mu.Unlock()
	flows := make([]*recvFlow, 0, len(t.rflows))
	for _, f := range t.rflows {
		flows = append(flows, f)
	}
	return flows
}

func (t *UDP) sendFlowFor(addr net.Addr) *sendFlow {
	key := addr.String()
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.sflows[key]
	if f == nil {
		f = &sendFlow{
			addr: addr, nextSeq: 1, base: 1,
			pending:  make(map[uint64]*pendingPkt),
			rto:      t.rto,
			cwnd:     initialCwnd,
			ssthresh: maxCwnd,
		}
		f.rtoNanos.Store(int64(t.rto))
		t.sflows[key] = f
		// Bind the reverse recv flow's delayed-ack clock to this flow.
		if rf := t.rflows[key]; rf != nil {
			rf.peer.CompareAndSwap(nil, f)
		}
	}
	return f
}

func (t *UDP) recvFlowFor(addr net.Addr) *recvFlow {
	key := addr.String()
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.rflows[key]
	if f == nil {
		f = &recvFlow{addr: addr, nextSeq: 1, ooo: make(map[uint64]*bufpool.Buf)}
		if sf := t.sflows[key]; sf != nil {
			f.peer.Store(sf)
		}
		t.rflows[key] = f
	}
	return f
}

// ackDelay is how long f may defer a cumulative ack: ~RTO/4 of the
// reverse flow's live estimate (the sender whose retransmit clock the
// deferred ack races), clamped to [minAckDelay, maxAckDelay].
func (f *recvFlow) ackDelay(fallback time.Duration) time.Duration {
	rto := fallback
	if peer := f.peer.Load(); peer != nil {
		if n := peer.rtoNanos.Load(); n > 0 {
			rto = time.Duration(n)
		}
	}
	d := rto / 4
	if d < minAckDelay {
		d = minAckDelay
	}
	if d > maxAckDelay {
		d = maxAckDelay
	}
	return d
}

// recvLoop reads datagrams — recvmmsg batches when the socket supports
// them, single ReadFrom calls otherwise — and dispatches by packet
// type. Unknown first bytes (e.g. the soak harness's textual bootstrap
// packets sharing this socket) are dropped.
func (t *UDP) recvLoop() {
	defer t.wg.Done()
	var ackBuf [ackLen]byte
	if t.bio != nil {
		if done := t.recvBatchLoop(ackBuf[:]); done {
			return
		}
		// recvmmsg unavailable or broken at runtime: fall back to the
		// single-datagram path below.
	}
	buf := make([]byte, maxDatagram)
	for {
		n, addr, err := t.conn.ReadFrom(buf)
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.dispatch(buf[:n], addr, ackBuf[:])
	}
}

// recvBatchLoop drains the socket with recvmmsg, dispatching every
// datagram of each batch. It returns true when the transport is done
// (socket closed), false to fall back to the single-datagram path.
func (t *UDP) recvBatchLoop(ackBuf []byte) bool {
	pkts := make([]batchPkt, batchSize)
	for {
		n, err := t.bio.readBatch(pkts)
		if err != nil {
			select {
			case <-t.done:
				return true
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return true
			}
			if errors.Is(err, errBatchUnsupported) {
				return false
			}
			continue
		}
		if n > 0 {
			t.count(metrics.WireBatchedReads, 1)
		}
		for i := 0; i < n; i++ {
			if pkts[i].addr == nil {
				continue // undecodable source sockaddr
			}
			t.dispatch(pkts[i].b, pkts[i].addr, ackBuf)
		}
	}
}

// dispatch routes one received datagram by its first byte.
func (t *UDP) dispatch(pkt []byte, addr net.Addr, ackBuf []byte) {
	if len(pkt) < 1 {
		return
	}
	switch pkt[0] {
	case ptAck:
		ack, err := parseAck(pkt)
		if err != nil {
			return
		}
		t.count(metrics.WireDatagramsRecv, 1)
		t.count(metrics.WireBytesRecv, int64(len(pkt)))
		t.handleAck(addr, ack)
	case ptData:
		t.count(metrics.WireDatagramsRecv, 1)
		t.count(metrics.WireBytesRecv, int64(len(pkt)))
		t.handleData(addr, pkt, ackBuf)
	}
}

// handleAck retires cumulatively acknowledged packets, samples the RTT
// from a clean (never-retransmitted) round trip, grows the congestion
// window, and flushes any queued packets the advanced window now
// admits.
func (t *UDP) handleAck(addr net.Addr, ack uint64) {
	f := t.sendFlowFor(addr)
	f.mu.Lock()
	defer f.mu.Unlock()
	if ack >= f.nextSeq {
		ack = f.nextSeq - 1
	}
	retired := 0
	var sampleFrom time.Time
	for seq := f.base; seq <= ack; seq++ {
		if p, ok := f.pending[seq]; ok {
			if !p.retx && !p.sent.IsZero() && p.sent.After(sampleFrom) {
				sampleFrom = p.sent
			}
			p.buf.Release()
			delete(f.pending, seq)
			retired++
		}
	}
	if retired > 0 {
		if !t.fixedRTO && !sampleFrom.IsZero() {
			f.observeRTT(time.Since(sampleFrom))
		}
		if t.fixedWin == 0 {
			f.ccOnAck(retired)
		}
		t.noteCC(f)
	}
	if ack+1 > f.base {
		f.base = ack + 1
		win := f.window(t.fixedWin)
		f.wlist = f.wlist[:0]
		for seq := f.base; seq < f.base+win && seq < f.nextSeq; seq++ {
			if p, ok := f.pending[seq]; ok && p.sent.IsZero() {
				f.wlist = append(f.wlist, p)
			}
		}
		t.flushPkts(f, f.wlist)
	}
	if retired > 0 {
		t.count(metrics.WireAckRoundTrips, 1)
	}
}

// handleData advances the flow's in-order position, holding early
// packets and re-acking duplicates. In-order arrivals coalesce their
// cumulative ack — one ack per ackEvery data datagrams, or a delayed
// flush from the tick loop — while duplicates and out-of-order
// arrivals ack immediately (the sender may be timing out or filling a
// hole).
func (t *UDP) handleData(addr net.Addr, pkt, ackBuf []byte) {
	h, err := parseHeader(pkt)
	if err != nil {
		return
	}
	f := t.recvFlowFor(addr)
	f.mu.Lock()
	ackNow := true
	switch {
	case h.seq < f.nextSeq:
		// Duplicate (our earlier ack was lost, or a retransmit raced the
		// delayed ack): re-ack immediately below — once per retransmit
		// burst. A timeout rewrites a whole window, and one cumulative
		// ack covers all of it; a re-ack per duplicate would multiply
		// the ack traffic exactly when the path is congested. Should
		// that one re-ack be lost, the sender's next (backed-off)
		// timeout lands after the suppression window, which is ~RTO/4.
		if t.ackEvery > 1 && f.dupAck == f.nextSeq-1 && !f.dupAckAt.IsZero() &&
			time.Since(f.dupAckAt) < f.ackDelay(t.rto) {
			ackNow = false
		} else {
			f.dupAck, f.dupAckAt = f.nextSeq-1, time.Now()
		}
	case h.seq > f.nextSeq:
		// Out of order: hold, and ack our position immediately so the
		// sender sees the hole.
		if _, held := f.ooo[h.seq]; !held {
			cp := bufpool.Get(len(pkt))
			copy(cp.B, pkt)
			f.ooo[h.seq] = cp
		}
	default:
		t.deliverInOrder(f, h, pkt[dataHeaderLen:])
		f.nextSeq++
		f.unacked++
		for {
			cp, held := f.ooo[f.nextSeq]
			if !held {
				break
			}
			delete(f.ooo, f.nextSeq)
			if h2, err := parseHeader(cp.B); err == nil {
				t.deliverInOrder(f, h2, cp.B[dataHeaderLen:])
			}
			cp.Release()
			f.nextSeq++
			f.unacked++
		}
		if f.unacked < t.ackEvery {
			// Coalesce: defer the cumulative ack to the flush timer.
			ackNow = false
			if f.ackDue.IsZero() {
				f.ackDue = time.Now().Add(f.ackDelay(t.rto))
			}
			t.count(metrics.WireAcksCoalesced, 1)
		}
	}
	var ack uint64
	if ackNow {
		ack = f.nextSeq - 1
		f.unacked = 0
		f.ackDue = time.Time{}
	}
	f.mu.Unlock()
	if ackNow {
		t.sendAck(addr, ack, ackBuf)
	}
}

// sendAck writes one cumulative-ack datagram.
func (t *UDP) sendAck(addr net.Addr, ack uint64, ackBuf []byte) {
	putAck(ackBuf, ack)
	if _, err := t.conn.WriteTo(ackBuf[:ackLen], addr); err == nil {
		t.count(metrics.WireDatagramsSent, 1)
		t.count(metrics.WireBytesSent, ackLen)
		t.count(metrics.WireAcksSent, 1)
	}
}

// deliverInOrder folds one in-sequence fragment into the flow's message
// under reassembly and hands the completed message to the handler.
// Fragments of a message are contiguous in the flow (Send enqueues them
// under the flow lock), so offset 0 always opens a fresh message.
func (t *UDP) deliverInOrder(f *recvFlow, h header, frag []byte) {
	if h.offset == 0 {
		if f.asm != nil {
			f.asm.Release()
		}
		f.asm = bufpool.Get(h.totalLen)
		f.asmGot = 0
	}
	if f.asm == nil || h.offset != f.asmGot || h.totalLen != len(f.asm.B) {
		return
	}
	copy(f.asm.B[h.offset:], frag)
	f.asmGot += len(frag)
	if f.asmGot < h.totalLen {
		return
	}
	buf := f.asm
	f.asm = nil
	t.hmu.RLock()
	hnd := t.handler
	t.hmu.RUnlock()
	if hnd == nil {
		buf.Release()
		return
	}
	hnd(Message{
		Ctx: h.ctx, Src: h.src, SrcWorld: h.srcWorld, Dst: h.dst,
		Tag: h.tag, Kind: h.kind, MsgID: h.msgID,
		Data: buf.B[:h.totalLen], Buf: buf,
	})
}

// tickLoop is the transport's clock: it retransmits written-but-unacked
// packets past their (backoff-inflated) timeout, writes queued packets
// the window admits, and flushes overdue delayed acks. The tick
// interval tracks the smallest live deadline so a 200µs adaptive RTO
// gets sub-millisecond resolution while an idle transport sleeps.
func (t *UDP) tickLoop() {
	defer t.wg.Done()
	timer := time.NewTimer(t.tickInterval())
	defer timer.Stop()
	for {
		select {
		case <-t.done:
			return
		case now := <-timer.C:
			t.retransmitPass(now)
			t.ackFlushPass(now)
			timer.Reset(t.tickInterval())
		}
	}
}

// tickInterval picks the next clock granularity: half the smallest live
// RTO when packets are pending, the shortest ack-flush deadline when
// acks are deferred, and a coarse idle tick otherwise.
func (t *UDP) tickInterval() time.Duration {
	const idle = 10 * time.Millisecond
	d := idle
	for _, f := range t.snapshotSendFlows() {
		f.mu.Lock()
		if len(f.pending) > 0 {
			if h := f.rto / 2; h < d {
				d = h
			}
		}
		f.mu.Unlock()
	}
	for _, f := range t.snapshotRecvFlows() {
		f.mu.Lock()
		if f.unacked > 0 && !f.ackDue.IsZero() {
			if u := time.Until(f.ackDue); u < d {
				d = u
			}
		}
		f.mu.Unlock()
	}
	if d < minAckDelay {
		d = minAckDelay
	}
	return d
}

// retransmitPass rewrites timed-out packets (exponential backoff per
// packet, Karn-marked so their acks never feed the RTT estimator) and
// registers at most one congestion loss event per pass.
func (t *UDP) retransmitPass(now time.Time) {
	for _, f := range t.snapshotSendFlows() {
		f.mu.Lock()
		win := f.window(t.fixedWin)
		f.wlist = f.wlist[:0]
		timedOut := false
		retx := 0
		for seq := f.base; seq < f.base+win && seq < f.nextSeq; seq++ {
			p, ok := f.pending[seq]
			if !ok {
				continue
			}
			if p.sent.IsZero() {
				f.wlist = append(f.wlist, p)
				continue
			}
			if now.Sub(p.sent) >= backoffRTO(f.rto, p.backoff) {
				p.retx = true
				if !t.fixedRTO && p.backoff < maxBackoff {
					p.backoff++
				}
				f.wlist = append(f.wlist, p)
				retx++
				timedOut = true
			}
		}
		if timedOut && t.fixedWin == 0 && f.ccOnTimeout() {
			t.count(metrics.WireCwndHalvings, 1)
			t.noteCC(f)
		}
		t.flushPkts(f, f.wlist)
		if retx > 0 {
			t.count(metrics.WireRetransmits, int64(retx))
		}
		f.mu.Unlock()
	}
}

// ackFlushPass sends the delayed cumulative ack of every recv flow
// whose flush deadline has passed.
func (t *UDP) ackFlushPass(now time.Time) {
	var ackBuf [ackLen]byte
	for _, f := range t.snapshotRecvFlows() {
		f.mu.Lock()
		due := f.unacked > 0 && !f.ackDue.IsZero() && !now.Before(f.ackDue)
		var ack uint64
		if due {
			ack = f.nextSeq - 1
			f.unacked = 0
			f.ackDue = time.Time{}
		}
		addr := f.addr
		f.mu.Unlock()
		if due {
			t.sendAck(addr, ack, ackBuf[:])
		}
	}
}
