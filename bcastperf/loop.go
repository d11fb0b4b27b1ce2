package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// windowLen is the granularity at which a phase samples how much CPU
// time the host's hypervisor took from this machine (steal). On a shared
// host steal arrives in episodes of tens of seconds and slows every
// broadcast in proportion, so latency and throughput are fitted against
// the steal of each window and read at zero steal (see phaseStats).
const windowLen = time.Second

// phase is one closed-loop measurement on np ranks, each rank calling
// and waiting for its own broadcast. Every round starts after a barrier
// (the protocol of the paper's Section V) and ends with another before
// the buffers are checked. Rank 0 ends the loop once the time budget is
// spent or the drawn rounds run out, and each rank times its own call
// into the layer under test.
type phase struct {
	np              int
	budget          time.Duration
	sizes           []int   // payload bytes per handle
	handle, variant []uint8 // per round, from inputs.draw
	base            time.Time

	// stopAt is the round every rank stops at. Rank 0 stores it before
	// entering that round's barrier and the others read it after
	// leaving it, so all ranks agree without extra messages.
	stopAt atomic.Int64
	// cur is the round rank 0 last started: the broadcast id of spans
	// recorded off the rank goroutines.
	cur atomic.Int64

	// Per round, in ns since base: the first rank's entry into the call,
	// the last rank's return, and the slowest rank's time inside it.
	first, last, slowest []atomic.Int64
	bad                  []atomic.Bool // some rank's buffer differed from the root's payload

	// perRank, when set, keeps every rank's own call as {start, dur}
	// at [2*(round*np+rank)].
	perRank []int64

	// Written by rank 0 only. mem brackets the rounds (after every rank
	// finished its per-run set-up, and at the stop decision), so
	// allocation counts leave out the run's launch. windows cut the
	// rounds into spans of about windowLen with the steal seen in each.
	mem      [2]runtime.MemStats
	windows  []window
	winStart time.Duration
	winCPU   cpuTimes
	stat     procStat
}

// window is the rounds [first, end) and the share of CPU time the host
// stole while they ran.
type window struct {
	first, end int
	steal      float64
}

func newPhase(np int, budget time.Duration, sizes []int, handle, variant []uint8, perRank bool) *phase {
	n := len(handle)
	p := &phase{
		np: np, budget: budget, sizes: sizes, handle: handle, variant: variant,
		first: make([]atomic.Int64, n), last: make([]atomic.Int64, n), slowest: make([]atomic.Int64, n),
		bad: make([]atomic.Bool, n),
	}
	p.stopAt.Store(math.MaxInt64)
	for i := range p.first {
		p.first[i].Store(math.MaxInt64)
	}
	if perRank {
		p.perRank = make([]int64, 2*n*np)
	}
	// Sized so closing a window allocates nothing inside the counted span.
	p.windows = make([]window, 0, min(int(budget/windowLen), n)+2)
	return p
}

// start marks the beginning of the timed phase; call it just before the
// run that executes the rounds.
func (p *phase) start() { p.base = time.Now() }

// runRank is one rank's side of the loop. buf returns this rank's buffer
// for a handle, barrier synchronises all ranks, and call is the timed
// broadcast of round i on handle h.
func (p *phase) runRank(rank int, want [][2][]byte, buf func(h int) []byte, barrier func() error, call func(i, h int) error) error {
	if err := barrier(); err != nil {
		return fmt.Errorf("barrier before the first round: %w", err)
	}
	if rank == 0 {
		p.stat.open()
		defer p.stat.close()
		runtime.ReadMemStats(&p.mem[0])
		p.winStart, p.winCPU = time.Since(p.base), p.stat.read()
	}
	for i := 0; ; i++ {
		if rank == 0 {
			if i == len(p.handle) || time.Since(p.base) >= p.budget {
				p.closeWindow(i)
				runtime.ReadMemStats(&p.mem[1])
				p.stopAt.Store(int64(i))
			} else {
				if time.Since(p.base)-p.winStart >= windowLen {
					p.closeWindow(i)
				}
				p.cur.Store(int64(i))
				h := p.handle[i]
				copy(buf(int(h)), want[h][p.variant[i]])
			}
		}
		if err := barrier(); err != nil {
			return fmt.Errorf("barrier before round %d: %w", i, err)
		}
		if int64(i) >= p.stopAt.Load() {
			return nil
		}
		h, v := int(p.handle[i]), p.variant[i]
		t0 := time.Since(p.base)
		err := call(i, h)
		t1 := time.Since(p.base)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		p.note(i, rank, int64(t0), int64(t1))
		// The check waits until every rank has left the broadcast, so it
		// never competes with a rank still inside the timed call.
		if err := barrier(); err != nil {
			return fmt.Errorf("barrier after round %d: %w", i, err)
		}
		if !intact(buf(h), want[h][v]) {
			p.bad[i].Store(true)
		}
	}
}

// intact is the check every rank applies to its whole buffer after every
// broadcast; selfCheck shows it catches a single flipped byte.
func intact(got, want []byte) bool { return bytes.Equal(got, want) }

func (p *phase) note(i, rank int, t0, t1 int64) {
	atomicMin(&p.first[i], t0)
	atomicMax(&p.last[i], t1)
	atomicMax(&p.slowest[i], t1-t0)
	if p.perRank != nil {
		k := 2 * (i*p.np + rank)
		p.perRank[k], p.perRank[k+1] = t0, t1-t0
	}
}

// closeWindow ends the current window before round end.
func (p *phase) closeWindow(end int) {
	now, cpu := time.Since(p.base), p.stat.read()
	first := 0
	if n := len(p.windows); n > 0 {
		first = p.windows[n-1].end
	}
	p.windows = append(p.windows, window{first: first, end: end, steal: cpu.stealSince(p.winCPU)})
	p.winStart, p.winCPU = now, cpu
}

func atomicMin(a *atomic.Int64, v int64) {
	for cur := a.Load(); v < cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

func atomicMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

// phaseStats summarises a finished phase. Correctness and counts cover
// every round. Latency and throughput are read at zero steal: each
// one-second window gives its median latency and its busy time per round
// and per MiB, and atZeroSteal reads a robust line through those figures
// against the windows' steal where steal is 0; a host without steal gets
// the plain median over the windows. The fit uses every window, so a run
// that met no quiet stretch still reports what the program does on a
// quiet host rather than what the neighbours left it.
type phaseStats struct {
	rounds  int
	bad     int           // rounds in which some buffer mismatched
	latUs   []float64     // per round: the slowest rank's time inside the call
	busy    time.Duration // sum over rounds of the span from first entry to last return
	payload int64         // bytes broadcast
	windows []windowStats
	mallocs uint64 // heap objects allocated over all rounds
	gcs     uint32 // GC cycles over all rounds
}

// windowStats is one window's figures for the zero-steal fits.
type windowStats struct {
	steal      float64
	p50Us      float64 // median of the slowest rank's time inside the call
	usPerRound float64 // busy time per broadcast
	usPerMiB   float64 // busy time per MiB of payload
}

// stats reads the phase after its run returned. A run that failed never
// set stopAt; its completed rounds are those before rank 0's last one.
func (p *phase) stats(runErr error) phaseStats {
	n := p.stopAt.Load()
	if runErr != nil || n == math.MaxInt64 {
		done := int(p.cur.Load())
		return phaseStats{rounds: done, bad: p.badRounds(done)}
	}
	s := phaseStats{rounds: int(n), bad: p.badRounds(int(n)),
		mallocs: p.mem[1].Mallocs - p.mem[0].Mallocs, gcs: p.mem[1].NumGC - p.mem[0].NumGC}
	for _, w := range p.windows {
		if w.end == w.first {
			continue
		}
		lat := make([]float64, 0, w.end-w.first)
		var busy time.Duration
		var payload int64
		for i := w.first; i < w.end; i++ {
			lat = append(lat, float64(p.slowest[i].Load())/1e3)
			busy += time.Duration(p.last[i].Load() - p.first[i].Load())
			payload += int64(p.sizes[p.handle[i]])
		}
		s.latUs = append(s.latUs, lat...)
		s.busy += busy
		s.payload += payload
		us := float64(busy) / 1e3
		s.windows = append(s.windows, windowStats{steal: w.steal, p50Us: median(lat),
			usPerRound: us / float64(len(lat)), usPerMiB: us / (float64(payload) / (1 << 20))})
	}
	return s
}

// p50Us is the median broadcast latency at zero steal.
func p50Us(phases []phaseStats) float64 {
	return atZeroSteal(phases, func(w windowStats) float64 { return w.p50Us })
}

// MBps is the payload broadcast per second of broadcast time at zero
// steal, in MiB/s.
func MBps(phases []phaseStats) float64 {
	return 1e6 / atZeroSteal(phases, func(w windowStats) float64 { return w.usPerMiB })
}

// perSecond is the broadcasts completed per second of broadcast time at
// zero steal.
func perSecond(phases []phaseStats) float64 {
	return 1e6 / atZeroSteal(phases, func(w windowStats) float64 { return w.usPerRound })
}

// atZeroSteal fits y = a_k + b*steal over the windows of phases k, each
// run on its own cluster: b is the Theil-Sen slope, the median over
// pairs of windows of one phase, held at or above zero (a phase does not
// speed up because the host took its CPU); a_k is the median of
// y - b*steal over phase k's windows. It returns the median of the a_k.
func atZeroSteal(phases []phaseStats, y func(windowStats) float64) float64 {
	var slopes []float64
	for _, ph := range phases {
		for i, wi := range ph.windows {
			for _, wj := range ph.windows[i+1:] {
				if wj.steal != wi.steal {
					slopes = append(slopes, (y(wj)-y(wi))/(wj.steal-wi.steal))
				}
			}
		}
	}
	b := 0.0
	if len(slopes) > 0 {
		b = max(median(slopes), 0)
	}
	at0 := make([]float64, len(phases))
	for k, ph := range phases {
		ys := make([]float64, len(ph.windows))
		for i, w := range ph.windows {
			ys[i] = y(w) - b*w.steal
		}
		at0[k] = median(ys)
	}
	return median(at0)
}

func (p *phase) badRounds(n int) int {
	bad := 0
	for i := 0; i < n; i++ {
		if p.bad[i].Load() {
			bad++
		}
	}
	return bad
}

// barriers is how many barriers the phase ran: one before the first
// round, two per round and the one at which the ranks learned to stop.
func (s phaseStats) barriers() int64 { return 2*int64(s.rounds) + 2 }

// cpuTimes is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuTimes struct{ steal, total int64 }

func (c cpuTimes) stealSince(prev cpuTimes) float64 {
	if c.total <= prev.total {
		return 0
	}
	return float64(c.steal-prev.steal) / float64(c.total-prev.total)
}

// procStat reads /proc/stat through one open file and buffer, so a
// sample allocates nothing. Where the file is unavailable every sample
// reads zero steal, and windows are kept in run order.
type procStat struct {
	f   *os.File
	buf [512]byte
}

func (s *procStat) open() {
	if f, err := os.Open("/proc/stat"); err == nil {
		s.f = f
	}
}

func (s *procStat) close() {
	if s.f != nil {
		s.f.Close()
	}
}

// read parses the aggregate line "cpu user nice system idle iowait irq
// softirq steal ...".
func (s *procStat) read() cpuTimes {
	if s.f == nil {
		return cpuTimes{}
	}
	n, _ := s.f.ReadAt(s.buf[:], 0)
	line := s.buf[:n]
	if len(line) < 4 || string(line[:4]) != "cpu " {
		return cpuTimes{}
	}
	var t cpuTimes
	field, v, digits := 0, int64(0), false
	for _, c := range line[4:] {
		if c >= '0' && c <= '9' {
			v, digits = 10*v+int64(c-'0'), true
			continue
		}
		if digits {
			t.total += v
			if field == 7 {
				t.steal = v
			}
			field++
			v, digits = 0, false
		}
		if c == '\n' || field == 8 {
			break
		}
	}
	return t
}
