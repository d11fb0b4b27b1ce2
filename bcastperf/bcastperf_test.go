package main

import (
	"testing"
	"time"
)

func TestSelfCheckCatchesOneFlippedByte(t *testing.T) {
	for _, wl := range workloads {
		if err := selfCheck(newInputs(wl, 7)); err != nil {
			t.Errorf("%s: %v", wl.name, err)
		}
	}
}

// Every use of a handle must broadcast the other variant than its last
// use, across draws, so a byte a broadcast fails to deliver never
// matches by accident.
func TestDrawAlternatesVariantsPerHandle(t *testing.T) {
	wl, _ := findWorkload("mmsg-npof2")
	in := newInputs(wl, 3)
	last := make([]int, len(wl.sizes))
	for h := range last {
		last[h] = -1
	}
	for _, n := range []int{len(wl.sizes), 50, 50} {
		handle, variant := in.draw(n, n == len(wl.sizes))
		done := n - 7 // a phase may stop before its drawn rounds run out
		for i := 0; i < done; i++ {
			h, v := handle[i], int(variant[i])
			if v == last[h] {
				t.Fatalf("handle %d repeated variant %d", h, v)
			}
			last[h] = v
		}
		in.commit(handle, done)
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{100, 999, 1000, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, q := tailPercentile(xs)
		if beyond := n - 1 - int(v); beyond < 10 {
			t.Errorf("n=%d: p%.2f leaves %d samples beyond it", n, 100*q, beyond)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: reported p%.2f, want p99", n, 100*q)
		}
	}
}

// A short traced run exercises every phase and its traffic checks.
func TestTracedRunIsCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("boots several clusters")
	}
	wl, _ := findWorkload("wire-udp")
	out := newReport()
	if err := traced(wl, newInputs(wl, 1), 2*time.Second, t.TempDir(), out); err != nil {
		t.Fatal(err)
	}
	if !out.correct() || out.attempted == 0 {
		t.Fatalf("attempted %d, failed %d, failed checks %d:\n%v", out.attempted, out.failed, out.checksFailed, out.lines)
	}
}

func TestEndToEndRunIsCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("boots nine clusters")
	}
	wl, _ := findWorkload("mmsg-npof2")
	out := newReport()
	if err := endToEnd(wl, newInputs(wl, 1), time.Second, out); err != nil {
		t.Fatal(err)
	}
	if !out.correct() || len(out.names) != 5 {
		t.Fatalf("correct=%v, metrics %v:\n%v", out.correct(), out.names, out.lines)
	}
}

// Latency and rates are read off a robust line through the windows:
// a window slowed by steal must not move the zero-steal figure, an odd
// window must not tilt it, a host without steal gets the median, and
// clusters at different speeds share the slope and give the median of
// their own figures.
func TestAtZeroSteal(t *testing.T) {
	p50 := func(w windowStats) float64 { return w.p50Us }
	line := func(a float64) phaseStats {
		var s phaseStats
		for i := 0; i < 10; i++ {
			steal := float64(i) / 40
			s.windows = append(s.windows, windowStats{steal: steal, p50Us: a + 200*steal})
		}
		return s
	}
	odd := line(100)
	odd.windows[3].p50Us = 1e6
	if got := atZeroSteal([]phaseStats{odd}, p50); got != 100 {
		t.Errorf("linear slow-down with one odd window: got %g, want 100", got)
	}
	if got := atZeroSteal([]phaseStats{line(90), odd, line(130)}, p50); got != 100 {
		t.Errorf("three clusters: got %g, want the middle one's 100", got)
	}
	flat := phaseStats{windows: []windowStats{{p50Us: 3}, {p50Us: 1}, {p50Us: 2}}}
	if got := atZeroSteal([]phaseStats{flat}, p50); got != 2 {
		t.Errorf("no steal: got %g, want the median 2", got)
	}
	// Faster under steal is noise, not a trend to extrapolate.
	neg := phaseStats{windows: []windowStats{{steal: 0, p50Us: 5}, {steal: 0.1, p50Us: 4}, {steal: 0.2, p50Us: 3}}}
	if got := atZeroSteal([]phaseStats{neg}, p50); got != 4 {
		t.Errorf("negative slope: got %g, want the median 4", got)
	}
}
