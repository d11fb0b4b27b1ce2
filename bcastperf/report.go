package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// report collects one run's result: the metrics by name, the correctness
// counts, and human-readable context printed ahead of the JSON line.
type report struct {
	attempted, failed int
	checksFailed      int
	names             []string
	values            map[string]measured
	lines             []string
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{values: map[string]measured{}} }

func (r *report) metric(name string, v float64, unit string) {
	r.names = append(r.names, name)
	r.values[name] = measured{Value: v, Unit: unit}
}

func (r *report) info(key, val string) {
	r.lines = append(r.lines, fmt.Sprintf("# %s: %s", key, val))
}

// check records an exact equality the run must satisfy; a mismatch makes
// the run incorrect.
func (r *report) check(what string, got, want int64) {
	verdict := "ok"
	if got != want {
		verdict = "MISMATCH"
		r.checksFailed++
	}
	r.lines = append(r.lines, fmt.Sprintf("# check %s: got %d, want %d: %s", what, got, want, verdict))
}

func (r *report) correct() bool { return r.failed == 0 && r.checksFailed == 0 }

// write prints the context lines, one "name value unit" line per metric,
// and the result object as the last line.
func (r *report) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, l := range r.lines {
		fmt.Fprintln(bw, l)
	}
	if r.attempted > 0 {
		fmt.Fprintf(bw, "# fail_ratio: %g (%d of %d broadcasts failed or mismatched)\n",
			float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	for _, n := range r.names {
		m := r.values[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", n, m.Value)
		}
		fmt.Fprintf(bw, "%-40s %16s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	obj, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.values})
	if err != nil {
		return err
	}
	bw.Write(obj)
	bw.WriteByte('\n')
	return bw.Flush()
}

// median of xs, interpolated between the middle pair.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is p99 by nearest rank when at least ten samples lie
// beyond it, and otherwise the highest percentile that leaves ten.
func tailPercentile(xs []float64) (value, q float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	q = math.Max(0.5, math.Min(0.99, 1-10/float64(n)))
	idx := int(math.Ceil(q*float64(n))) - 1
	return s[max(idx, 0)], q
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
