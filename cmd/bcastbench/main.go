// Command bcastbench is the user-level micro-benchmark of the paper's
// Section V, run on the real in-process engine: all ranks synchronize
// with a barrier, the broadcast repeats for a fixed iteration count, and
// the bandwidth (base-2 MB/s) is reported per message size.
//
// Usage:
//
//	bcastbench -np 16 -algo native -min 524288 -max 4194304
//	bcastbench -np 10 -algo opt -iters 100
//	bcastbench -np 12 -cores 4 -algo smp-opt      # multi-node placement
//
// Comparing -algo native against -algo opt reproduces the paper's
// MPI_Bcast_native / MPI_Bcast_opt comparison at laptop scale. -algo also
// accepts any algorithm registered in internal/collective (see -list,
// which prints each algorithm's capability flags) — including the
// segmented rings and the chain, whose segment size -seg selects — and
// -tune-table dispatches every broadcast
// through a JSON tuning table produced by the auto-tuner.
//
// Beyond the fixed-algorithm benchmark, the tool drives the auto-tuner
// from real wall-clock measurements (internal/measure), reaching feature
// parity with bcastsim's netsim-backed tuning:
//
//	bcastbench -autotune -np 4,8 -placements blocked:4 -o table.json
//	bcastbench -autotune -segs 8192,65536 -reps 7 -warmup 2 -stat median
//	bcastbench -autotune -samples samples.json      # persist raw samples
//	bcastbench -crosscheck -np 4,8                  # netsim-vs-engine agreement report
//
// -autotune measures every applicable registry candidate per grid point
// on the engine (warmup + repetitions between barriers, robust statistic
// over the samples) and emits a tune.Table; -crosscheck derives one
// table from the netsim cost model and one from the engine over the same
// grid and reports the cells where the model and the wall clock disagree
// on the winner. -samples writes every raw repetition sample as JSON so
// runs are reproducible and diffable.
//
// -persistent switches the benchmark onto the serving fast path: per
// message size the tool resolves one persistent handle with BcastInit
// and drives -iters Start/Wait rounds on it inside a single live run,
// so the printed bandwidth excludes per-call selection and relaunch
// costs (compare against the same invocation without -persistent):
//
//	bcastbench -persistent -np 64 -algo scatter-ring-allgather-opt-seg -seg 8192 -iters 1000
//
// -exec selects the engine's rank-execution substrate in every mode:
// the default "goroutine" runs one OS-scheduled goroutine per rank,
// "pooled" multiplexes ranks onto a bounded cooperative worker pool
// (-workers, clamped to GOMAXPROCS) — the substrate that keeps -np in
// the hundreds measurable:
//
//	bcastbench -exec pooled -np 256 -autotune -placements blocked:32
//
// -transport selects the engine's point-to-point substrate: the default
// "chan" moves messages in-process, "udp" routes every message through a
// loopback UDP socket with the real datagram framing and retransmit
// machinery (internal/transport) — the traffic and results are
// byte-identical, only the wall clock differs. It applies to the
// benchmark, -persistent and -autotune modes; -crosscheck rejects it
// because the netsim reference side has no transport to match:
//
//	bcastbench -transport udp -np 8 -algo opt -metrics
//
// Every table and report records the substrate in its provenance.
//
// Observability (benchmark and -persistent modes): -metrics prints the
// engine's counter snapshot after the sweep — sends and receives split
// by eager/rendezvous protocol, staged bytes, buffer-pool activity per
// size class, executor parks and slot waits, queue high-water marks.
// -timeline writes the per-operation spans as a Chrome trace-event JSON
// file (open it in Perfetto or chrome://tracing; one timeline row per
// rank), -spans sizes the per-rank span ring it records into, and
// -spans-summary reads such a file back and prints per-operation
// latency percentiles without re-running anything:
//
//	bcastbench -np 64 -exec pooled -algo binomial -metrics -timeline trace.json
//	bcastbench -spans-summary trace.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/bcast"
	"repro/internal/bench"
	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/tune"
)

func main() {
	var (
		npFlag    = flag.String("np", "8", "comma-separated rank counts (benchmark: one section per count; -autotune/-crosscheck: the grid's process axis)")
		algoFlag  = flag.String("algo", "opt", "broadcast: a legacy variant (native|opt|binomial|auto|auto-opt|smp|smp-opt) or a registry algorithm (see -list)")
		listFlag  = flag.Bool("list", false, "list registered algorithms with their capability flags and exit")
		tableFlag = flag.String("tune-table", "", "JSON tuning table; dispatch each broadcast through it (overrides -algo)")
		segFlag   = flag.Int("seg", 0, "segment size in bytes for segmented algorithms (0 = default)")
		minFlag   = flag.Int("min", 16<<10, "smallest message size in bytes")
		maxFlag   = flag.Int("max", 4<<20, "largest message size in bytes")
		itersFlag = flag.Int("iters", 100, "broadcast iterations per size (paper: 100; benchmark mode only)")
		coresFlag = flag.Int("cores", 0, "cores per node for blocked placement (0 = single node; benchmark mode only — tuning modes use -placements)")
		eagerFlag = flag.Int("eager", 0, "eager limit override in bytes (0 = default, -1 = rendezvous only)")
		rootFlag  = flag.Int("root", 0, "broadcast root")
		persFlag  = flag.Bool("persistent", false, "benchmark the persistent fast path: one BcastInit per size, -iters Start/Wait rounds on a live cluster (benchmark mode only)")

		metricsFlag = flag.Bool("metrics", false, "print the engine metrics snapshot after the sweep (benchmark modes only)")
		tlFlag      = flag.String("timeline", "", "write operation spans as Chrome trace-event JSON to this file (benchmark modes only; needs a single -np)")
		spansFlag   = flag.Int("spans", 0, "per-rank span ring capacity (0 = 4096 when -timeline is set, else spans off)")
		summaryFlag = flag.String("spans-summary", "", "read a -timeline file and print per-operation latency percentiles, then exit")
		execFlag    = flag.String("exec", "goroutine", "rank-execution substrate: goroutine (one goroutine per rank) | pooled (bounded cooperative worker pool; use for -np in the hundreds)")
		workFlag    = flag.Int("workers", 0, "pooled executor worker count, clamped to GOMAXPROCS (0 = GOMAXPROCS; requires -exec pooled)")
		transFlag   = flag.String("transport", "", "point-to-point substrate: chan (in-process, default) | udp (every message over a loopback UDP socket with the real framing and retransmit path)")

		autotuneFlag = flag.Bool("autotune", false, "auto-tune over the registry on the real engine and emit a JSON tuning table")
		crossFlag    = flag.Bool("crosscheck", false, "derive tables from both netsim and the engine over the same grid and report per-cell agreement")
		candFlag     = flag.String("candidates", "all", "tuning candidate set: all (whole registry, SMP included; -crosscheck: its schedule-static subset) | mpich (the dispatcher's own family)")
		segsFlag     = flag.String("segs", "", "comma-separated segment sizes for -autotune/-crosscheck: sweep every segmented candidate over these instead of its default")
		placeFlag    = flag.String("placements", "", "comma-separated placements for -autotune/-crosscheck: single|blocked:N|round-robin:N; emits per-topology rule groups")
		repsFlag     = flag.Int("reps", measure.DefaultReps, "timed repetitions per measured grid point")
		warmupFlag   = flag.Int("warmup", measure.DefaultWarmup, "untimed warm-up iterations per measured grid point (0 = none)")
		statFlag     = flag.String("stat", string(measure.StatTrimmed), "statistic reported to the tuner: min|median|trimmed")
		modelFlag    = flag.String("model", "hornet", "netsim model for the -crosscheck reference side: hornet|laki")
		outFlag      = flag.String("o", "", "write the -autotune/-crosscheck engine-derived table to this file instead of stdout")
		samplesFlag  = flag.String("samples", "", "write every raw repetition sample of a tuning run to this JSON file")
	)
	flag.Parse()

	if *listFlag {
		fmt.Println("# registered broadcast algorithms:")
		for _, r := range collective.Algorithms() {
			fmt.Printf("%-34s %-30s %s\n", r.Name, r.Caps.Label(), r.Summary)
		}
		return
	}
	if *summaryFlag != "" {
		// Like -list, a pure offline mode: nothing runs.
		if err := printSpansSummary(*summaryFlag); err != nil {
			fmt.Fprintf(os.Stderr, "bcastbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	nps, err := parseInts(*npFlag)
	if err != nil || len(nps) == 0 {
		fmt.Fprintf(os.Stderr, "bcastbench: bad -np %q\n", *npFlag)
		os.Exit(2)
	}
	// -exec/-workers apply to every engine boot, so unlike the
	// mode-specific knobs below they are valid in both benchmark and
	// tuning mode.
	execPol, err := engine.ParseExecPolicy(*execFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcastbench: %v\n", err)
		os.Exit(2)
	}
	if *workFlag < 0 {
		fmt.Fprintf(os.Stderr, "bcastbench: -workers must be non-negative, got %d (0 = GOMAXPROCS)\n", *workFlag)
		os.Exit(2)
	}
	if *workFlag != 0 && execPol != engine.Pooled {
		fmt.Fprintln(os.Stderr, "bcastbench: -workers requires -exec pooled (the goroutine substrate has no pool to size)")
		os.Exit(2)
	}
	switch *transFlag {
	case "", transport.ChanName, transport.UDPName, transport.UDPBaseName:
	default:
		fmt.Fprintf(os.Stderr, "bcastbench: unknown -transport %q (chan|udp|udp-base)\n", *transFlag)
		os.Exit(2)
	}
	if *minFlag < 0 || *maxFlag < *minFlag {
		fmt.Fprintln(os.Stderr, "bcastbench: bad min/max")
		os.Exit(2)
	}
	// Guard against accidental monster allocations: every rank holds one
	// buffer of -max bytes.
	for _, np := range nps {
		if total := np * *maxFlag; total > 4<<30 {
			fmt.Fprintf(os.Stderr, "bcastbench: np*max = %d bytes exceeds 4 GiB; scale down\n", total)
			os.Exit(2)
		}
	}

	// A flag that only acts in the other mode is rejected, not silently
	// dropped — silently dropping it would run a different measurement
	// than asked for.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	tuningMode := *autotuneFlag || *crossFlag
	if *autotuneFlag && *crossFlag {
		// The modes differ (candidate set, output, an extra netsim sweep);
		// picking one silently would run a different measurement than
		// asked for.
		fmt.Fprintln(os.Stderr, "bcastbench: -autotune and -crosscheck are mutually exclusive")
		os.Exit(2)
	}
	if !tuningMode {
		for from, to := range map[string]string{
			"segs": "-seg", "placements": "-cores", "reps": "-iters", "warmup": "-iters",
			"o": "", "samples": "", "candidates": "", "stat": "", "model": "",
		} {
			if !set[from] {
				continue
			}
			hint := ""
			if to != "" {
				hint = fmt.Sprintf(" (the benchmark spelling is %s)", to)
			}
			fmt.Fprintf(os.Stderr, "bcastbench: -%s requires -autotune or -crosscheck%s\n", from, hint)
			os.Exit(2)
		}
	}
	if tuningMode {
		// Symmetric with the check above: the benchmark-only knobs have a
		// tuning-mode spelling (-seg vs -segs, -cores vs -placements,
		// -iters vs -reps, -tune-table vs the emitted -o).
		for from, to := range map[string]string{
			"seg": "-segs", "cores": "-placements", "iters": "-reps", "tune-table": "-o", "algo": "-candidates",
			"metrics": "", "timeline": "", "spans": "",
		} {
			if set[from] {
				hint := ""
				if to != "" {
					hint = fmt.Sprintf("; tuning modes use %s", to)
				}
				fmt.Fprintf(os.Stderr, "bcastbench: -%s is benchmark-only%s\n", from, hint)
				os.Exit(2)
			}
		}
		if *persFlag {
			fmt.Fprintln(os.Stderr, "bcastbench: -persistent is benchmark-only (tuning modes measure the per-call path)")
			os.Exit(2)
		}
		if set["model"] && !*crossFlag {
			fmt.Fprintln(os.Stderr, "bcastbench: -model only selects the -crosscheck reference side")
			os.Exit(2)
		}
		if set["transport"] && *crossFlag {
			// The netsim reference side has no transport to vary, so an
			// engine-side transport would make the per-cell comparison
			// asymmetric by construction.
			fmt.Fprintln(os.Stderr, "bcastbench: -transport is not valid with -crosscheck (the netsim side has no transport)")
			os.Exit(2)
		}
		if *minFlag < 1 {
			// The size grid doubles from -min; starting at 0 would collapse
			// it to a single zero-byte point whose winner the emitted rules
			// would then extend to every message size.
			fmt.Fprintln(os.Stderr, "bcastbench: tuning modes need -min >= 1")
			os.Exit(2)
		}
		if *repsFlag < 1 {
			// Silently falling back to the default would run a different
			// measurement than asked for.
			fmt.Fprintln(os.Stderr, "bcastbench: tuning modes need -reps >= 1")
			os.Exit(2)
		}
		// The measure package treats Warmup 0 as "default" and a negative
		// value as "none"; an explicit -warmup 0 on the command line means
		// none.
		warmup := *warmupFlag
		if set["warmup"] && warmup == 0 {
			warmup = -1
		}
		if err := runTuning(nps, tuningOpts{
			min: *minFlag, max: *maxFlag,
			segs: *segsFlag, placements: *placeFlag, candSet: *candFlag,
			reps: *repsFlag, warmup: warmup, stat: *statFlag,
			root: *rootFlag, eager: *eagerFlag, model: *modelFlag,
			exec: execPol, workers: *workFlag, transport: *transFlag,
			crosscheck: *crossFlag, outPath: *outFlag, samplesPath: *samplesFlag,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "bcastbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Span rings are sized per rank; -timeline turns them on implicitly.
	// The trace file holds one run's spans, so it needs a single -np.
	spanCap := *spansFlag
	if spanCap < 0 {
		fmt.Fprintf(os.Stderr, "bcastbench: -spans must be non-negative, got %d\n", spanCap)
		os.Exit(2)
	}
	if *tlFlag != "" {
		if len(nps) != 1 {
			fmt.Fprintln(os.Stderr, "bcastbench: -timeline needs a single -np (one trace file per run)")
			os.Exit(2)
		}
		if spanCap == 0 {
			spanCap = 4096
		}
	}

	if *persFlag {
		if err := runPersistent(nps, persistOpts{
			algo: *algoFlag, table: *tableFlag, seg: *segFlag,
			min: *minFlag, max: *maxFlag, iters: *itersFlag,
			cores: *coresFlag, eager: *eagerFlag, root: *rootFlag,
			exec: execPol, workers: *workFlag, transport: *transFlag,
			spanCap: spanCap, metrics: *metricsFlag, timeline: *tlFlag,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "bcastbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := bench.RealConfig{
		CoresPerNode: *coresFlag,
		EagerLimit:   *eagerFlag,
		Iterations:   *itersFlag,
		Root:         *rootFlag,
		SegSize:      *segFlag,
		Executor:     execPol,
		MaxWorkers:   *workFlag,
		Transport:    *transFlag,
	}
	label := *algoFlag
	switch {
	case *tableFlag != "":
		table, err := tune.LoadTable(*tableFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcastbench:", err)
			os.Exit(2)
		}
		cfg.Tuner = tune.TableTuner{Table: table, Fallback: tune.MPICH3{}}
		label = fmt.Sprintf("tune-table %q", table.Name)
	default:
		if variant, err := bench.ParseVariant(*algoFlag); err == nil {
			cfg.Variant = variant
			label = variant.String()
		} else if _, ok := collective.Lookup(*algoFlag); ok {
			cfg.Algo = *algoFlag
		} else {
			fmt.Fprintf(os.Stderr, "bcastbench: unknown algorithm %q (registry: %s)\n",
				*algoFlag, strings.Join(collective.Names(), ", "))
			os.Exit(2)
		}
	}
	for _, np := range nps {
		cfg.NP = np
		// One Metrics per rank count: every measurement world of this
		// section boots against it, so the snapshot spans the whole sweep.
		mx := metrics.New(np, spanCap)
		cfg.Metrics = mx
		fmt.Printf("# user-level bcast benchmark: %s, np=%d, iters=%d, exec=%s, transport=%s\n",
			label, np, *itersFlag, cfg.ExecLabel(), cfg.TransportLabel())
		fmt.Printf("%-12s %14s %14s\n", "bytes", "us/iter", "MB/s")
		for n := *minFlag; n <= *maxFlag; n *= 2 {
			res, err := bench.MeasureReal(cfg, n)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bcastbench: size %d: %v\n", n, err)
				os.Exit(1)
			}
			fmt.Printf("%-12d %14.2f %14.2f\n", n, res.Seconds*1e6, res.MBps)
			if n == 0 {
				break
			}
		}
		if err := report(engineSnapshot(mx, cfg.ExecLabel(), cfg.TransportLabel()), *metricsFlag, *tlFlag); err != nil {
			fmt.Fprintf(os.Stderr, "bcastbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// engineSnapshot merges a benchmark run's Metrics and stamps the
// executor and transport labels the way the facade's Cluster.Metrics
// does.
func engineSnapshot(mx *metrics.Metrics, execLabel, transLabel string) metrics.Snapshot {
	s := engine.CollectMetrics(mx)
	s.Executor = execLabel
	s.Transport = transLabel
	return s
}

// report prints the snapshot and/or writes the Chrome trace, as asked.
func report(s metrics.Snapshot, print bool, timeline string) error {
	if print {
		fmt.Println(s.String())
	}
	if timeline == "" {
		return nil
	}
	f, err := os.Create(timeline)
	if err != nil {
		return err
	}
	if err := s.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", timeline, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s (open in Perfetto or chrome://tracing)\n", len(s.Spans), timeline)
	return nil
}

// printSpansSummary is the offline -spans-summary mode: it loads a
// Chrome trace written by -timeline and prints per-operation latency
// percentiles.
func printSpansSummary(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := metrics.LoadChromeTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("# span summary of %s (%d spans):\n", path, len(spans))
	fmt.Print(metrics.SummarizeSpans(spans))
	return nil
}

// tuningOpts bundles the -autotune/-crosscheck options.
type tuningOpts struct {
	min, max     int
	segs         string
	placements   string
	candSet      string
	reps, warmup int
	stat         string
	root, eager  int
	model        string
	exec         engine.ExecPolicy
	workers      int
	transport    string
	crosscheck   bool
	outPath      string
	samplesPath  string
}

// runTuning drives the real-engine auto-tuner: it builds the measurement
// grid, measures it with an EngineMeasurer (optionally recording raw
// samples), and either emits the engine-derived table (-autotune) or the
// netsim-versus-engine agreement report (-crosscheck).
func runTuning(procs []int, o tuningOpts) error {
	var sizes []int
	for n := o.min; n <= o.max; n *= 2 { // o.min >= 1, checked by the caller
		sizes = append(sizes, n)
	}
	segs, err := parseInts(o.segs)
	if err != nil {
		return fmt.Errorf("-segs: %w", err)
	}
	var placements []tune.Placement
	if strings.TrimSpace(o.placements) != "" {
		for _, tok := range strings.Split(o.placements, ",") {
			pl, err := tune.ParsePlacement(tok)
			if err != nil {
				return err
			}
			placements = append(placements, pl)
		}
	}
	stat, err := measure.ParseStat(o.stat)
	if err != nil {
		return err
	}
	var cands []tune.Candidate
	switch o.candSet {
	case "all":
		// nil = the whole registry
	case "mpich":
		cands = bench.FamilyCandidates()
	default:
		return fmt.Errorf("unknown -candidates %q (all|mpich)", o.candSet)
	}

	log := &measure.SampleLog{}
	eng := measure.EngineMeasurer{
		Warmup:     o.warmup,
		Reps:       o.reps,
		Root:       o.root,
		EagerLimit: o.eager,
		Stat:       stat,
		Executor:   o.exec,
		MaxWorkers: o.workers,
		Transport:  o.transport,
	}
	if o.samplesPath != "" {
		eng.Log = log
	}
	sweep := tune.SweepConfig{Procs: procs, Sizes: sizes, SegSizes: segs, Placements: placements}

	var table *tune.Table
	if o.crosscheck {
		var model *netsim.Model
		switch o.model {
		case "hornet":
			model = netsim.Hornet()
		case "laki":
			model = netsim.Laki()
		default:
			return fmt.Errorf("unknown -model %q (hornet|laki)", o.model)
		}
		report, err := bench.CrossCheck(bench.SimConfig{Model: model}, eng, cands, sweep)
		if err != nil {
			return err
		}
		fmt.Printf("# netsim (%s) vs real-engine cross-check, %d procs x %d sizes:\n",
			model.Name, len(procs), len(sizes))
		fmt.Print(bench.FormatCrossReport(report))
		table = report.EngTable
	} else {
		t, winners, err := bench.AutoTuneEngine(eng, cands, sweep)
		if err != nil {
			return err
		}
		fmt.Println("# real-engine auto-tuner grid winners:")
		fmt.Print(bench.FormatWinners(winners))
		table = t
	}

	if o.samplesPath != "" {
		if err := log.Save(o.samplesPath); err != nil {
			return err
		}
		fmt.Printf("# raw samples written to %s (%d records)\n", o.samplesPath, len(log.Records()))
	}
	if o.outPath != "" {
		if err := tune.SaveTable(table, o.outPath); err != nil {
			return err
		}
		fmt.Printf("# engine-derived tuning table written to %s (%d rules)\n", o.outPath, len(table.Rules))
		return nil
	}
	data, err := table.JSON()
	if err != nil {
		return err
	}
	fmt.Println("# engine-derived tuning table:")
	fmt.Println(string(data))
	return nil
}

// persistOpts bundles the -persistent benchmark options.
type persistOpts struct {
	algo, table string
	seg         int
	min, max    int
	iters       int
	cores       int
	eager, root int
	exec        engine.ExecPolicy
	workers     int
	transport   string
	spanCap     int
	metrics     bool
	timeline    string
}

// persistSelection maps the -algo spelling onto facade cluster options
// (the legacy variant names resolve to their registry algorithms, the
// auto modes to the MPICH3 tuner) and returns the printable label.
func persistSelection(algo string) ([]bcast.Option, string, error) {
	legacy := map[string]string{
		"native": bcast.RingNative, "opt": bcast.RingOpt,
		"binomial": bcast.Binomial, "smp": bcast.SMP, "smp-opt": bcast.SMPOpt,
	}
	switch {
	case algo == "auto":
		return []bcast.Option{bcast.Tuner(bcast.MPICH3Tuner(false))}, "auto (mpich3)", nil
	case algo == "auto-opt":
		return []bcast.Option{bcast.Tuner(bcast.MPICH3Tuner(true))}, "auto-opt (mpich3 tuned)", nil
	case legacy[algo] != "":
		return []bcast.Option{bcast.Algorithm(legacy[algo])}, legacy[algo], nil
	default:
		if _, ok := collective.Lookup(algo); ok {
			return []bcast.Option{bcast.Algorithm(algo)}, algo, nil
		}
		return nil, "", fmt.Errorf("unknown algorithm %q (registry: %s)",
			algo, strings.Join(collective.Names(), ", "))
	}
}

// runPersistent benchmarks the serving fast path through the public
// facade: per process count one cluster, per message size one Run that
// resolves a persistent handle with BcastInit and drives -iters
// Start/Wait rounds on it, timed on rank 0 between barriers. The
// cluster — and the world it boots — is reused across every size, so
// after the first row each printed bandwidth is pure steady state.
func runPersistent(nps []int, o persistOpts) error {
	sel, label, err := persistSelection(o.algo)
	if o.table != "" {
		sel, label, err = []bcast.Option{bcast.TuneTable(o.table)}, fmt.Sprintf("tune-table %q", o.table), nil
	}
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, np := range nps {
		opts := append([]bcast.Option{
			bcast.Procs(np),
			bcast.EagerLimit(o.eager),
			bcast.Timeout(10 * time.Minute),
		}, sel...)
		if o.cores > 0 {
			opts = append(opts, bcast.Placement(fmt.Sprintf("blocked:%d", o.cores)))
		}
		if o.seg > 0 {
			opts = append(opts, bcast.SegSize(o.seg))
		}
		if o.exec == engine.Pooled {
			opts = append(opts, bcast.ExecPooled(o.workers))
		}
		if o.transport != "" {
			opts = append(opts, bcast.WithTransport(o.transport))
		}
		if o.spanCap > 0 {
			opts = append(opts, bcast.WithSpans(o.spanCap))
		}
		cl, err := bcast.NewCluster(ctx, opts...)
		if err != nil {
			return fmt.Errorf("np=%d: %w", np, err)
		}
		fmt.Printf("# persistent bcast benchmark: %s, np=%d, iters=%d, exec=%s, transport=%s\n",
			label, np, o.iters, o.exec, cl.Transport())
		fmt.Printf("%-12s %14s %14s\n", "bytes", "us/iter", "MB/s")
		for n := o.min; n <= o.max; n *= 2 {
			var elapsed time.Duration
			err := cl.Run(ctx, func(c bcast.Comm) error {
				buf := make([]byte, n)
				if c.Rank() == o.root {
					for i := range buf {
						buf[i] = byte(i)
					}
				}
				ph, err := c.BcastInit(buf, o.root)
				if err != nil {
					return err
				}
				// One untimed round populates the pooled staging classes.
				if err := ph.Run(ctx); err != nil {
					return err
				}
				if err := c.Barrier(ctx); err != nil {
					return err
				}
				start := time.Now()
				for i := 0; i < o.iters; i++ {
					if err := ph.Run(ctx); err != nil {
						return err
					}
				}
				if err := c.Barrier(ctx); err != nil {
					return err
				}
				if c.Rank() == 0 {
					elapsed = time.Since(start)
				}
				return ph.Free()
			})
			if err != nil {
				return fmt.Errorf("np=%d size=%d: %w", np, n, err)
			}
			per := elapsed.Seconds() / float64(o.iters)
			fmt.Printf("%-12d %14.2f %14.2f\n", n, per*1e6, float64(n)/per/(1<<20))
			if n == 0 {
				break
			}
		}
		if err := report(cl.Metrics(), o.metrics, o.timeline); err != nil {
			return err
		}
	}
	return nil
}

// parseInts parses a comma-separated list of positive ints; empty input
// yields nil.
func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad value %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}
