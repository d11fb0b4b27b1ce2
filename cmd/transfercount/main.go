// Command transfercount tabulates the ring-allgather transfer counts of
// the native (enclosed) and tuned (non-enclosed) algorithms — the
// Section IV claims of the paper (P=8: 56 -> 44, P=10: 90 -> 75),
// generalized over P. With -measure, the counts are additionally
// verified by executing both broadcasts on the real engine under the
// traffic tracer and comparing observed message counts against the
// analytic model.
//
// Usage:
//
//	transfercount
//	transfercount -p 8,10,16,129 -n 65536 -measure
//	transfercount -algo binomial,chain,scatter-ring-allgather-opt
//	transfercount -tune-table table.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/tune"
)

func main() {
	var (
		pFlag       = flag.String("p", "2,4,8,10,16,32,64,129,256", "comma-separated process counts")
		nFlag       = flag.Int("n", 1<<20, "broadcast size in bytes for the byte columns")
		measureFlag = flag.Bool("measure", false, "verify counts by traced execution on the real engine (P <= 64)")
		algoFlag    = flag.String("algo", "", "comma-separated registry algorithms: tabulate whole-broadcast schedule traffic instead of the ring-phase table")
		segFlag     = flag.Int("seg", 0, "segment size for segmented algorithms (0 = default)")
		tableFlag   = flag.String("tune-table", "", "JSON tuning table: show the dispatch decision and its traffic per process count")
		coresFlag   = flag.Int("cores", 0, "cores per node assumed when resolving -tune-table topology rules (0 = single node)")
	)
	flag.Parse()

	var ps []int
	for _, tok := range strings.Split(*pFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || p < 1 {
			fmt.Fprintf(os.Stderr, "transfercount: bad process count %q\n", tok)
			os.Exit(2)
		}
		ps = append(ps, p)
	}

	if *algoFlag != "" {
		if err := countAlgos(strings.Split(*algoFlag, ","), ps, *nFlag, *segFlag); err != nil {
			fmt.Fprintf(os.Stderr, "transfercount: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *tableFlag != "" {
		if err := countTable(*tableFlag, ps, *nFlag, *coresFlag); err != nil {
			fmt.Fprintf(os.Stderr, "transfercount: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("# ring allgather transfer counts, n=%d bytes (analytic model)\n", *nFlag)
	fmt.Print(bench.FormatCounts(bench.TransferCounts(ps, *nFlag)))

	if !*measureFlag {
		return
	}
	fmt.Println("\n# traced execution on the real engine (ring phase only):")
	fmt.Printf("%-6s %12s %12s %8s\n", "P", "native-msgs", "tuned-msgs", "match")
	for _, p := range ps {
		if p > 64 {
			fmt.Printf("%-6d %12s %12s %8s\n", p, "-", "-", "skipped")
			continue
		}
		nat, err := measureRing(tune.RingNative, p, *nFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "transfercount: %v\n", err)
			os.Exit(1)
		}
		opt, err := measureRing(tune.RingOpt, p, *nFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "transfercount: %v\n", err)
			os.Exit(1)
		}
		wantNat := core.RingTrafficNative(p, *nFlag).Messages
		wantOpt := core.RingTrafficTuned(p, *nFlag).Messages
		match := "OK"
		if int(nat) != wantNat || int(opt) != wantOpt {
			match = fmt.Sprintf("MISMATCH (want %d/%d)", wantNat, wantOpt)
		}
		fmt.Printf("%-6d %12d %12d %8s\n", p, nat, opt, match)
	}
}

func measureRing(algo string, p, n int) (int64, error) {
	o := collective.Options{Algorithm: algo}
	col := trace.NewCollector()
	err := engine.Run(p, func(c mpi.Comm) error {
		tc := col.Wrap(c)
		buf := make([]byte, n)
		if tc.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		return collective.Broadcast(tc, buf, 0, o)
	})
	if err != nil {
		return 0, err
	}
	return col.Stats().ByTag[core.TagRing].Messages, nil
}

// countAlgos tabulates total schedule traffic (all phases, not just the
// ring) for registry algorithms, via their generated programs.
func countAlgos(names []string, ps []int, n, seg int) error {
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	fmt.Printf("# whole-broadcast schedule traffic, n=%d bytes\n", n)
	fmt.Printf("%-6s %-30s %12s %14s\n", "P", "algorithm", "messages", "bytes")
	for _, p := range ps {
		for _, name := range names {
			reg, ok := collective.Lookup(name)
			if !ok {
				return fmt.Errorf("unknown algorithm %q (registry: %s)", name, strings.Join(collective.Names(), ", "))
			}
			if reg.Program == nil {
				fmt.Printf("%-6d %-30s %12s %14s\n", p, name, "-", "-")
				continue
			}
			pr, err := reg.Program(p, 0, n, seg)
			if err != nil {
				fmt.Printf("%-6d %-30s %12s %14s\n", p, name, "n/a", err.Error())
				continue
			}
			st := pr.Stats()
			fmt.Printf("%-6d %-30s %12d %14d\n", p, name, st.Messages, st.Bytes)
		}
	}
	return nil
}

// countTable shows, per process count, which algorithm a tuning table
// dispatches at size n and the traffic of that schedule. The assumed
// placement (cores per node) matters only for tables with multi_node
// rules; decisions are resolved exactly as a broadcast on that placement
// would resolve them.
func countTable(path string, ps []int, n, cores int) error {
	table, err := tune.LoadTable(path)
	if err != nil {
		return err
	}
	tuner := tune.TableTuner{Table: table, Fallback: tune.MPICH3{}}
	fmt.Printf("# tuning-table dispatch, table %q, n=%d bytes\n", table.Name, n)
	fmt.Printf("%-6s %-30s %12s %14s\n", "P", "decision", "messages", "bytes")
	for _, p := range ps {
		topo := topology.SingleNode(p)
		if cores > 0 {
			topo = topology.Blocked(p, cores)
		}
		d := tuner.Decide(tune.EnvOf(n, p, topo))
		reg, ok := collective.Lookup(d.Algorithm)
		if !ok || reg.Program == nil {
			fmt.Printf("%-6d %-30s %12s %14s\n", p, d.Algorithm, "-", "-")
			continue
		}
		pr, err := reg.Program(p, 0, n, d.SegSize)
		if err != nil {
			return err
		}
		st := pr.Stats()
		fmt.Printf("%-6d %-30s %12d %14d\n", p, d.Algorithm, st.Messages, st.Bytes)
	}
	return nil
}
