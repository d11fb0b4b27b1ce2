// Command bcastperf is the repository's benchmark. For one named workload
// it runs a closed broadcast loop through the public bcast facade from a
// single process, checks every rank's buffer after every broadcast, and
// prints either the end-to-end metrics (--trace 0) or, from a separate
// traced run, the per-layer metrics (--trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1200, "failed": 0, "metrics": {...}}
//
// Build and run it through run.sh from the repository root:
//
//	bash bcastperf/run.sh --workload lmsg --seed 1 --seconds 10 --trace 0
//
// The command exits non-zero when any broadcast fails or leaves a buffer
// different from the root's payload, or when a traffic count disagrees
// with the resolved schedule.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name: lmsg, mmsg-npof2 or wire-udp")
	seed := flag.Uint64("seed", 1, "seed for the payload bytes and the handle order")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spansDir := flag.String("spans-dir", ".", "directory the traced run writes its spans to")
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcastperf:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bcastperf: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	in := newInputs(wl, *seed)
	if err := selfCheck(in); err != nil {
		fmt.Fprintln(os.Stderr, "bcastperf: self-check:", err)
		return 1
	}
	out := newReport()
	out.info("workload", fmt.Sprintf("%s np=%d placement=%s executor=%s transport=%s persistent=%v sizes=%v seed=%d",
		wl.name, wl.np, wl.placement, executorName(wl), wl.transport, wl.persistent, wl.sizes, *seed))
	out.info("host", fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH))
	budget := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		err = endToEnd(wl, in, budget, out)
	} else {
		err = traced(wl, in, budget, *spansDir, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcastperf:", err)
		return 1
	}
	if err := out.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bcastperf:", err)
		return 1
	}
	if !out.correct() {
		fmt.Fprintln(os.Stderr, "bcastperf: incorrect results (see the # lines above)")
		return 1
	}
	return 0
}

func executorName(wl workload) string {
	if wl.pooled {
		return "pooled"
	}
	return "goroutine"
}

// selfCheck shows that intact, the check the loop applies after every
// broadcast, flags a copy of a payload with one byte flipped, and passes
// an intact copy.
func selfCheck(in *inputs) error {
	for h := range in.want {
		for v, want := range in.want[h] {
			got := bytes.Clone(want)
			if !intact(got, want) {
				return fmt.Errorf("intact copy of handle %d variant %d rejected", h, v)
			}
			i := in.rng.IntN(len(got))
			got[i] ^= 1 << in.rng.IntN(8)
			if intact(got, want) {
				return fmt.Errorf("one flipped byte at %d of handle %d variant %d not detected", i, h, v)
			}
		}
	}
	return nil
}
