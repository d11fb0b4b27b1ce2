package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
)

// Span layers, top down; each layer's spans are caused by the span of
// the layer above on the same rank and broadcast.
type spanLayer uint8

const (
	layerBcast spanLayer = iota
	layerCollective
	layerEngine
	layerTransport
)

var layerNames = [...]string{"bcast", "collective", "engine", "transport"}

type spanOp uint8

const (
	opCall spanOp = iota // the layer's broadcast entry point
	opSend
	opRecv
	opSendrecv
	opIsend
	opIrecv
	opIprobe
	opWait
	opDeliver
)

var opNames = [...]string{"call", "send", "recv", "sendrecv", "isend", "irecv", "iprobe", "wait", "deliver"}

// span is one timed call, in ns since its phase began. id is the
// broadcast: the round within the phase. Transport spans run off the
// rank goroutines and carry the round rank 0 had last started.
type span struct {
	id         int64
	rank       int32
	layer      spanLayer
	op         spanOp
	start, dur int64
}

// spanStore keeps spans in memory, in a buffer fixed at start, until the
// run ends. Spans beyond its capacity are counted, not kept.
type spanStore struct {
	phase string
	buf   []span
	n     atomic.Int64
}

func newSpanStore(phase string, capacity int) *spanStore {
	return &spanStore{phase: phase, buf: make([]span, capacity)}
}

func (s *spanStore) add(sp span) {
	if i := s.n.Add(1) - 1; i < int64(len(s.buf)) {
		s.buf[i] = sp
	}
}

func (s *spanStore) kept() []span { return s.buf[:min(s.n.Load(), int64(len(s.buf)))] }

func (s *spanStore) dropped() int64 { return max(s.n.Load()-int64(len(s.buf)), 0) }

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(path string, stores ...*spanStore) (n int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, s := range stores {
		for _, sp := range s.kept() {
			parent := "null"
			if sp.layer > layerBcast {
				parent = fmt.Sprintf("%q", layerNames[sp.layer-1])
			}
			fmt.Fprintf(w, `{"phase":%q,"id":%d,"rank":%d,"layer":%q,"op":%q,"parent":%s,"start_ns":%d,"end_ns":%d}`+"\n",
				s.phase, sp.id, sp.rank, layerNames[sp.layer], opNames[sp.op], parent, sp.start, sp.start+sp.dur)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}
