package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/transport"
)

// p2pStats accumulates one rank's point-to-point calls. Only that rank's
// goroutine writes it; it is read after the run returns.
type p2pStats struct {
	rank     int
	round    int64 // broadcast id of the call in progress
	sendNs   int64 // inside Send, Isend and the Wait of an Isend
	recvNs   int64 // inside Recv, Sendrecv, Irecv, Iprobe and the Wait of an Irecv
	msgs     int64
	bytes    int64
	inter    int64
	spans    *spanStore
	base     time.Time
	topology *topology.Map
}

func (s *p2pStats) busyNs() int64 { return s.sendNs + s.recvNs }

// timed charges the call that started at t0 to the send or receive side
// and records it as an engine span of the current broadcast.
func (s *p2pStats) timed(op spanOp, t0 time.Time, send bool) {
	d := time.Since(t0)
	if send {
		s.sendNs += int64(d)
	} else {
		s.recvNs += int64(d)
	}
	s.spans.add(span{id: s.round, rank: int32(s.rank), layer: layerEngine, op: op, start: int64(t0.Sub(s.base)), dur: int64(d)})
}

func (s *p2pStats) sent(to, n int) {
	s.msgs++
	s.bytes += int64(n)
	if !s.topology.SameNode(s.rank, to) {
		s.inter += int64(n)
	}
}

// timedComm times every point-to-point call a rank makes into the engine
// and counts the messages it sends. Like internal/trace's decorator it
// forwards the optional communicator capabilities — tag streams, context
// binding and the span ring — so collectives behave exactly as on the
// bare engine communicator.
type timedComm struct {
	inner mpi.Comm
	st    *p2pStats
}

var (
	_ mpi.Comm           = (*timedComm)(nil)
	_ mpi.TagStreamer    = (*timedComm)(nil)
	_ mpi.Contexter      = (*timedComm)(nil)
	_ metrics.SpanSource = (*timedComm)(nil)
)

func (t *timedComm) NextTagStream() int {
	if ts, ok := t.inner.(mpi.TagStreamer); ok {
		return ts.NextTagStream()
	}
	return 0
}

func (t *timedComm) SpanRing() *metrics.SpanRing { return metrics.RingOf(t.inner) }

func (t *timedComm) WithContext(ctx context.Context) mpi.Comm {
	return &timedComm{inner: mpi.WithContext(ctx, t.inner), st: t.st}
}

func (t *timedComm) Rank() int               { return t.inner.Rank() }
func (t *timedComm) Size() int               { return t.inner.Size() }
func (t *timedComm) Topology() *topology.Map { return t.inner.Topology() }

func (t *timedComm) Send(buf []byte, to, tag int) error {
	t0 := time.Now()
	err := t.inner.Send(buf, to, tag)
	t.st.timed(opSend, t0, true)
	if err == nil {
		t.st.sent(to, len(buf))
	}
	return err
}

func (t *timedComm) Recv(buf []byte, from, tag int) (mpi.Status, error) {
	t0 := time.Now()
	st, err := t.inner.Recv(buf, from, tag)
	t.st.timed(opRecv, t0, false)
	return st, err
}

func (t *timedComm) Sendrecv(sendBuf []byte, to, sendTag int, recvBuf []byte, from, recvTag int) (mpi.Status, error) {
	t0 := time.Now()
	st, err := t.inner.Sendrecv(sendBuf, to, sendTag, recvBuf, from, recvTag)
	t.st.timed(opSendrecv, t0, false)
	if err == nil {
		t.st.sent(to, len(sendBuf))
	}
	return st, err
}

func (t *timedComm) Isend(buf []byte, to, tag int) (mpi.Request, error) {
	t0 := time.Now()
	req, err := t.inner.Isend(buf, to, tag)
	t.st.timed(opIsend, t0, true)
	if err != nil {
		return req, err
	}
	t.st.sent(to, len(buf))
	return &timedReq{Request: req, st: t.st, send: true}, nil
}

func (t *timedComm) Irecv(buf []byte, from, tag int) (mpi.Request, error) {
	t0 := time.Now()
	req, err := t.inner.Irecv(buf, from, tag)
	t.st.timed(opIrecv, t0, false)
	if err != nil {
		return req, err
	}
	return &timedReq{Request: req, st: t.st}, nil
}

func (t *timedComm) Iprobe(from, tag int) (mpi.Status, bool, error) {
	t0 := time.Now()
	st, ok, err := t.inner.Iprobe(from, tag)
	t.st.timed(opIprobe, t0, false)
	return st, ok, err
}

func (t *timedComm) Split(color, key int) (mpi.Comm, error) {
	sub, err := t.inner.Split(color, key)
	if err != nil || sub == nil {
		return nil, err
	}
	return &timedComm{inner: sub, st: t.st}, nil
}

// timedReq charges the time spent waiting on a nonblocking request.
type timedReq struct {
	mpi.Request
	st   *p2pStats
	send bool
}

func (r *timedReq) Wait() (mpi.Status, error) {
	t0 := time.Now()
	st, err := r.Request.Wait()
	r.st.timed(opWait, t0, r.send)
	return st, err
}

// timedTransport times the engine's calls into a transport's Send and
// the transport's deliveries into the engine's handler. Barrier messages
// are passed through untimed, so the totals belong to the broadcasts.
type timedTransport struct {
	transport.Transport
	ph                *phase
	spans             *spanStore
	sendNs, deliverNs atomic.Int64
}

func barrierTag(tag int) bool { return mpi.BaseTag(tag) == core.TagBarrier }

func (t *timedTransport) Send(m transport.Message) error {
	if barrierTag(m.Tag) {
		return t.Transport.Send(m)
	}
	t0 := time.Now()
	err := t.Transport.Send(m)
	d := time.Since(t0)
	t.sendNs.Add(int64(d))
	t.spans.add(span{id: t.ph.cur.Load(), rank: int32(m.SrcWorld), layer: layerTransport, op: opSend, start: int64(t0.Sub(t.ph.base)), dur: int64(d)})
	return err
}

func (t *timedTransport) Start(h transport.Handler) error {
	return t.Transport.Start(func(m transport.Message) {
		if barrierTag(m.Tag) {
			h(m)
			return
		}
		dst := m.Dst
		t0 := time.Now()
		h(m)
		d := time.Since(t0)
		t.deliverNs.Add(int64(d))
		t.spans.add(span{id: t.ph.cur.Load(), rank: int32(dst), layer: layerTransport, op: opDeliver, start: int64(t0.Sub(t.ph.base)), dur: int64(d)})
	})
}

// BindMetrics forwards the engine's metrics to the wrapped transport, so
// its wire counters still reach the world's Snapshot.
func (t *timedTransport) BindMetrics(m *metrics.Metrics) {
	if bm, ok := t.Transport.(interface{ BindMetrics(*metrics.Metrics) }); ok {
		bm.BindMetrics(m)
	}
}
