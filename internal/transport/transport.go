// Package transport is the engine's point-to-point substrate seam: the
// layer that decides how a message issued by one rank reaches another
// rank's endpoint. The engine routes through a Transport only for
// destinations the transport declares wired; everything else stays on
// the in-process channel path, so the default Chan transport is
// byte- and traffic-identical to the pre-seam engine by construction.
//
// # Message model
//
// A Transport moves whole engine-level messages (Message), not packets:
// framing, fragmentation and reliability are the backend's private
// business. Send is a synchronous, reliable, ordered enqueue — when it
// returns, the transport has copied the payload out of the caller's
// buffer and guarantees in-order delivery per (SrcWorld, Dst) pair as
// long as the peer stays reachable, which is exactly the MPI
// non-overtaking obligation the engine needs. Delivered messages arrive
// through the Handler with their payload reassembled into a pooled
// bufpool buffer whose ownership transfers to the handler.
//
// Three message kinds cross a transport: Eager carries a payload whose
// send completed at enqueue time; Rdv carries a rendezvous payload whose
// sender blocks until the receiver consumes it; RdvAck is the
// consumption notice that unblocks the Rdv sender. The ack rides the
// same reliable stream as data, so a lost datagram delays — never
// wedges — a rendezvous.
//
// # UDP framing format
//
// The UDP backend frames messages as length-delimited fragments over
// datagrams, little-endian throughout, encoded with binary PutUint*/
// Uint* into caller-owned bufpool buffers (no per-packet allocation in
// steady state). A data datagram is a 54-byte header followed by the
// fragment payload:
//
//	[0]     packet type (1 = data)
//	[1:9]   seq       — per-flow sequence number (first packet is 1)
//	[9:17]  msgID     — sender-assigned rendezvous correlation id
//	[17]    kind      — Eager | Rdv | RdvAck
//	[18:26] ctx       — communicator context id
//	[26:30] src       — sender's rank within ctx
//	[30:34] srcWorld  — sender's world rank
//	[34:38] dst       — destination world rank
//	[38:46] tag
//	[46:50] totalLen  — full message payload length
//	[50:54] offset    — this fragment's offset into the payload
//
// An ACK datagram is 9 bytes: type 2 followed by the cumulative
// sequence number — the highest seq below which every packet of the
// flow has been delivered.
//
// # Retransmit contract
//
// A flow is the ordered packet stream between two socket addresses.
// Senders keep every packet until it is cumulatively acknowledged and
// retransmit unacknowledged packets on a timeout; receivers deliver
// strictly in sequence order, buffer out-of-order packets, drop
// duplicates, and acknowledge with their cumulative position (possibly
// coalesced — see Adaptive behavior). Loss, duplication and
// reordering (see Faulty) therefore cost latency, never correctness:
// delivery to the Handler is exactly-once and in flow order. Packets
// are retained and retransmitted without bound — abandoning a flow is
// the caller's decision (the engine's run watchdog), not the
// transport's. Close lingers (bounded) until every retained packet is
// acknowledged, because an Eager send completes at the engine level
// when it is enqueued: a process exiting right after its last send
// must not strand a message a peer is still blocked on. The drain bound
// scales with the live retransmit timeout — max(5s, 64·RTO) — so a
// backoff-inflated RTO still leaves the final ACK exchange several
// retransmit opportunities.
//
// # Adaptive behavior
//
// The UDP backend adapts three mechanisms per flow; each has a config
// escape hatch that pins the pre-adaptive behavior (the "udp-base"
// spelling pins all of them, as the benchmark baseline).
//
// Retransmit timeout: ACK round trips of never-retransmitted packets
// (Karn's rule) feed a Jacobson/Karels estimator — SRTT and RTTVAR with
// gains 1/8 and 1/4 — and the flow retransmits after RTO = SRTT +
// 4·RTTVAR, clamped to [200µs, 1s]. A packet that times out repeatedly
// backs off exponentially (RTO·2^n, capped). UDPConfig.RetransmitEvery
// pins a fixed timeout and disables estimation and backoff — the
// deterministic escape hatch for Faulty-based tests.
//
// Congestion window: the send window starts at 32 packets in slow start
// (+1 per acked packet), crosses into AIMD additive growth at the
// slow-start threshold, and on a retransmit timeout halves both cwnd
// and the threshold — at most once per outstanding window — flooring at
// 2 packets and capping at 256. Packets beyond the window queue
// unwritten and flush as ACKs reopen it. UDPConfig.FixedWindow pins a
// fixed window with no congestion response.
//
// ACK coalescing: in-order data datagrams defer their cumulative ACK
// until either UDPConfig.AckEvery of them accumulate (default 8) or a
// flush timer of ~RTO/4 of the reverse flow (clamped to [100µs, 5ms])
// expires; duplicates and out-of-order arrivals are acknowledged
// immediately, since the sender is evidently retransmitting or filling
// a hole. A retransmit burst of duplicates gets one re-ack, not one per
// datagram: further duplicates at the same position within the ack
// delay are answered by it. AckEvery=1 restores ack-per-datagram.
//
// Batched I/O: on Linux, multi-packet flushes go through sendmmsg and
// the receive loop drains the socket with recvmmsg — one syscall per
// batch instead of per datagram. The batch path engages only when the
// transport owns a raw *net.UDPConn; wrapped sockets (Faulty), other
// platforms, or a runtime refusal (ENOSYS) fall back to per-datagram
// WriteTo/ReadFrom with identical wire behavior. UDPConfig.NoBatch
// forces the fallback.
package transport

import (
	"fmt"

	"repro/internal/bufpool"
)

// Transport names, as the CLIs' -transport flag and the provenance
// labels spell them.
const (
	ChanName = "chan"
	UDPName  = "udp"
	// UDPBaseName selects the UDP backend with every adaptive mechanism
	// pinned to its pre-adaptive fixed behavior (see SelfUDPBase) — the
	// comparison baseline for wire benchmarks, not a deployment choice.
	UDPBaseName = "udp-base"
)

// Kind classifies an engine-level message on the wire.
type Kind uint8

const (
	// Eager carries a full payload; the send completed when the
	// transport accepted the message.
	Eager Kind = iota
	// Rdv carries a full rendezvous payload; the sender blocks until a
	// matching RdvAck comes back.
	Rdv
	// RdvAck is the consumption notice for a Rdv message (no payload);
	// MsgID correlates it with the blocked sender.
	RdvAck
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case Eager:
		return "eager"
	case Rdv:
		return "rdv"
	case RdvAck:
		return "rdv-ack"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is one engine-level message crossing a transport.
type Message struct {
	Ctx      int64 // communicator context id
	Src      int   // sender's rank within Ctx (the matching key)
	SrcWorld int   // sender's world rank
	Dst      int   // destination world rank
	Tag      int
	Kind     Kind
	MsgID    uint64 // rendezvous correlation id (Rdv and RdvAck)
	// Data is the payload. On Send the transport copies it before
	// returning and never retains it; on delivery it aliases Buf.B.
	Data []byte
	// Buf backs Data on delivered messages; ownership transfers to the
	// Handler, which must Release it (directly or through whatever the
	// payload was handed to). Nil on the Send side.
	Buf *bufpool.Buf
}

// Handler consumes delivered messages. It is invoked from the
// transport's receive goroutine in per-flow order, so it must not block
// on transport progress (enqueuing a reply via Send is fine — Send
// never waits for the receive loop).
type Handler func(Message)

// Transport is the engine's pluggable point-to-point substrate.
//
// Hosted reports whether a rank's body runs in this process; Wire
// whether messages to a destination rank must cross the transport
// (ForceWire self-loop setups answer true for hosted ranks too). The
// engine consults Wire per send and never calls Send for unwired
// destinations, so the default in-process path pays one boolean branch.
type Transport interface {
	// Name labels the transport for provenance ("chan", "udp").
	Name() string
	Hosted(rank int) bool
	Wire(dst int) bool
	// Send reliably enqueues m for in-order delivery to the process
	// hosting m.Dst. It is synchronous (per-sender issue order is
	// preserved), copies m.Data before returning, and never blocks on
	// the receive path.
	Send(m Message) error
	// Start begins delivering inbound messages to h. Calling Start
	// again replaces the handler (a fresh world rebinding a live
	// transport).
	Start(h Handler) error
	Close() error
}

// Chan is the default in-process transport: every rank is hosted,
// nothing is wired, and all traffic stays on the engine's channel path
// — byte- and traffic-identical to the pre-seam engine by construction
// (the engine never reaches Send when Wire is false everywhere).
type Chan struct{}

// Name implements Transport.
func (Chan) Name() string { return ChanName }

// Hosted implements Transport: every rank runs in this process.
func (Chan) Hosted(int) bool { return true }

// Wire implements Transport: nothing crosses a wire.
func (Chan) Wire(int) bool { return false }

// Send implements Transport. The engine routes nothing through an
// unwired transport, so reaching Send is a bug worth hearing about.
func (Chan) Send(m Message) error {
	return fmt.Errorf("transport: chan transport wires no destinations (got a send to rank %d)", m.Dst)
}

// Start implements Transport (nothing to deliver).
func (Chan) Start(Handler) error { return nil }

// Close implements Transport.
func (Chan) Close() error { return nil }

// New builds a transport from its CLI spelling: "chan" (or empty) for
// the in-process default, "udp" for a loopback self-loop UDP transport
// hosting all np ranks in this process with every message routed
// through a real socket (see SelfUDP), "udp-base" for the same wiring
// with the adaptive wire path pinned off (see SelfUDPBase). Multi-
// process UDP topologies need the explicit UDPConfig constructor — they
// cannot be described by a name alone.
func New(spec string, np int) (Transport, error) {
	switch spec {
	case "", ChanName:
		return Chan{}, nil
	case UDPName:
		return SelfUDP(np)
	case UDPBaseName:
		return SelfUDPBase(np)
	default:
		return nil, fmt.Errorf("transport: unknown transport %q (%s|%s|%s)", spec, ChanName, UDPName, UDPBaseName)
	}
}
