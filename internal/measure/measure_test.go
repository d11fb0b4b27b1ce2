package measure

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/tune"
)

// cand builds a minimal candidate for a registry name; EngineMeasurer
// resolves by name, so no Program is needed.
func cand(name string, seg int) tune.Candidate {
	return tune.Candidate{Name: name, SegSize: seg}
}

// TestEngineMeasurerSmoke measures a real broadcast at tiny scale and
// checks the timings are plausible: positive, and monotone in message
// size across a 256x size gap (wall-clock noise cannot plausibly make a
// 1 KiB broadcast slower than a 256 KiB one under the min statistic).
func TestEngineMeasurerSmoke(t *testing.T) {
	m := EngineMeasurer{Warmup: 1, Reps: 3, Stat: StatMin}
	small, err := m.Measure(cand(tune.RingOpt, 0), 4, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	large, err := m.Measure(cand(tune.RingOpt, 0), 4, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if small <= 0 || large <= 0 {
		t.Fatalf("non-positive timings: small=%v large=%v", small, large)
	}
	if large <= small {
		t.Errorf("256 KiB (%v s) not slower than 1 KiB (%v s)", large, small)
	}
}

// TestEngineMeasurerHonorsPlacement: the measurement environment must
// reflect the realized placement, and a placed measurement must run
// (multi-node placements route through the engine's topology).
func TestEngineMeasurerHonorsPlacement(t *testing.T) {
	m := EngineMeasurer{
		Place:  tune.Placement{Kind: topology.KindBlocked, CoresPerNode: 2},
		Warmup: 1, Reps: 2, Stat: StatMin,
	}
	e := m.Env(4, 1<<10)
	if e.Placement != topology.KindBlocked || e.NumNodes != 2 || e.CoresPerNode != 2 {
		t.Fatalf("Env = %+v, want blocked placement over 2 nodes", e)
	}
	if _, err := m.Measure(cand(tune.RingNative, 0), 4, 1<<10); err != nil {
		t.Fatal(err)
	}

	// The placement must also gate capability-constrained algorithms:
	// an SMP broadcast is runnable here but not on a single node.
	if _, err := m.Measure(cand(tune.SMP, 0), 4, 1<<10); err != nil {
		t.Errorf("smp on 2 nodes: %v", err)
	}
	single := EngineMeasurer{Warmup: 1, Reps: 2}
	if _, err := single.Measure(cand(tune.SMP, 0), 4, 1<<10); err == nil {
		t.Error("smp on a single node: want capability error")
	}
}

// TestEngineMeasurerSegmented runs a segmented candidate with an awkward
// segment size end to end.
func TestEngineMeasurerSegmented(t *testing.T) {
	m := EngineMeasurer{Warmup: 1, Reps: 2, Stat: StatMedian}
	if _, err := m.Measure(cand(tune.RingOptSeg, 512), 5, 4096+3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Measure(cand(tune.RingSeg, 512), 5, 4096+3); err != nil {
		t.Fatal(err)
	}
}

func TestEngineMeasurerErrors(t *testing.T) {
	m := EngineMeasurer{Warmup: 1, Reps: 2}
	if _, err := m.Measure(cand("no-such-algorithm", 0), 4, 64); err == nil {
		t.Error("unknown algorithm: want error")
	}
	badStat := EngineMeasurer{Warmup: 1, Reps: 2, Stat: "mean"}
	if _, err := badStat.Measure(cand(tune.RingOpt, 0), 4, 64); err == nil {
		t.Error("unknown statistic: want error, not a silent default")
	}
	bad := EngineMeasurer{Place: tune.Placement{Kind: "blocked"}} // missing cores
	if _, err := bad.Measure(cand(tune.RingOpt, 0), 4, 64); err == nil {
		t.Error("invalid placement: want error")
	}
	if e := bad.Env(4, 64); e.Procs != 4 || e.Bytes != 64 || e.Placement != "" {
		t.Errorf("degraded Env = %+v, want bare (Bytes, Procs)", e)
	}
}

// TestSampleLogRoundTrip: measurements record raw samples, the log
// round-trips through JSON, and the recorded digest matches the value
// reported to the tuner.
func TestSampleLogRoundTrip(t *testing.T) {
	log := &SampleLog{}
	m := EngineMeasurer{
		Place:  tune.Placement{Kind: topology.KindBlocked, CoresPerNode: 2},
		Warmup: 1, Reps: 3, Stat: StatMin, Log: log,
	}
	sec, err := m.Measure(cand(tune.RingOpt, 0), 4, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	recs := log.Records()
	if len(recs) != 1 {
		t.Fatalf("recorded %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Algorithm != tune.RingOpt || r.Procs != 4 || r.Bytes != 1<<10 {
		t.Errorf("record key = %q/%d/%d", r.Algorithm, r.Procs, r.Bytes)
	}
	if r.Placement != "blocked:2" {
		t.Errorf("record placement = %q, want \"blocked:2\"", r.Placement)
	}
	if len(r.Samples) != 3 || r.Warmup != 1 || r.Reps != 3 || r.Stat != "min" {
		t.Errorf("record protocol = %+v", r)
	}
	if r.Seconds != sec || r.Summary.Min != sec {
		t.Errorf("record seconds %v / summary min %v, want both %v", r.Seconds, r.Summary.Min, sec)
	}

	path := filepath.Join(t.TempDir(), "samples.json")
	if err := log.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSampleLog(path)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Records()
	if len(got) != 1 || got[0].Algorithm != r.Algorithm || got[0].Seconds != r.Seconds ||
		len(got[0].Samples) != len(r.Samples) {
		t.Errorf("round-tripped record differs: %+v vs %+v", got[0], r)
	}
}

// TestAutoTuneOnEngine drives the real tuner loop end to end through the
// measurer-factory seam at tiny scale: the emitted table must validate
// and resolve, proving EngineMeasurer is a drop-in tune.Measurer.
func TestAutoTuneOnEngine(t *testing.T) {
	m := EngineMeasurer{Warmup: 1, Reps: 2, Stat: StatMin}
	var cands []tune.Candidate
	for _, c := range collective.Candidates() {
		if c.Name == tune.Binomial || c.Name == tune.RingOpt {
			cands = append(cands, c)
		}
	}
	table, winners, err := tune.AutoTuneSweep(cands, m.Factory(), tune.SweepConfig{
		Procs:      []int{4},
		Sizes:      []int{1 << 10, 1 << 14},
		Placements: []tune.Placement{{Kind: topology.KindBlocked, CoresPerNode: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(winners) != 2 {
		t.Fatalf("got %d winners, want 2", len(winners))
	}
	for _, w := range winners {
		if w.Seconds <= 0 {
			t.Errorf("winner at (p=%d, n=%d) has non-positive time", w.Procs, w.Bytes)
		}
		if w.Env.Placement != topology.KindBlocked {
			t.Errorf("winner env placement %q, want blocked", w.Env.Placement)
		}
	}
	e := tune.EnvOf(1<<10, 4, topology.Blocked(4, 2))
	if _, ok := table.Lookup(e); !ok {
		t.Errorf("table has no rule for the tuned environment %+v", e)
	}
}

// TestAutoTuneOnEngineMeasuresScheduleless: candidates without a static
// schedule (the SMP broadcasts) are measurable on the engine's grids —
// the tune.ProgramFree contract — and win when they are the only
// applicable candidate.
func TestAutoTuneOnEngineMeasuresScheduleless(t *testing.T) {
	m := EngineMeasurer{Warmup: 1, Reps: 2, Stat: StatMin}
	var smp tune.Candidate
	for _, c := range collective.AllCandidates() {
		if c.Name == tune.SMP {
			smp = c
		}
	}
	if smp.Name == "" {
		t.Fatal("smp not in AllCandidates")
	}
	if smp.Program != nil {
		t.Fatal("smp unexpectedly grew a static schedule; test needs updating")
	}
	_, winners, err := tune.AutoTuneSweep([]tune.Candidate{smp}, m.Factory(), tune.SweepConfig{
		Procs:      []int{4},
		Sizes:      []int{1 << 12},
		Placements: []tune.Placement{{Kind: topology.KindBlocked, CoresPerNode: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != 1 || winners[0].Decision.Algorithm != tune.SMP {
		t.Fatalf("winners = %+v, want one smp win", winners)
	}
	if winners[0].Seconds <= 0 {
		t.Errorf("non-positive smp timing %v", winners[0].Seconds)
	}
}

// TestEngineMeasurerPooledExecutor measures on the pooled substrate:
// the measurement must succeed with more ranks than workers, and the
// sample log must record which substrate produced each sample.
func TestEngineMeasurerPooledExecutor(t *testing.T) {
	log := &SampleLog{}
	m := EngineMeasurer{
		Warmup: 1, Reps: 2, Stat: StatMin,
		Executor: engine.Pooled, MaxWorkers: 2,
		Log: log,
	}
	// The pool is clamped to GOMAXPROCS, so derive the label, don't pin it.
	want := fmt.Sprintf("pooled(%d)", engine.PooledWorkers(2))
	if got := m.ExecLabel(); got != want {
		t.Fatalf("ExecLabel = %q, want %s", got, want)
	}
	sec, err := m.Measure(cand(tune.RingOpt, 0), 16, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if sec <= 0 {
		t.Fatalf("non-positive pooled timing %v", sec)
	}
	recs := log.Records()
	if len(recs) != 1 || recs[0].Exec != want {
		t.Fatalf("sample log records %+v lack pooled provenance", recs)
	}

	// The default substrate must label itself too.
	d := EngineMeasurer{}
	if got := d.ExecLabel(); got != "goroutine" {
		t.Fatalf("default ExecLabel = %q, want goroutine", got)
	}
}

// TestEngineMeasurerRejectsBadWorkers: a negative worker bound must fail
// the measurement loudly, not fall back to a different substrate.
func TestEngineMeasurerRejectsBadWorkers(t *testing.T) {
	m := EngineMeasurer{Executor: engine.Pooled, MaxWorkers: -3}
	if _, err := m.Measure(cand(tune.RingOpt, 0), 4, 1<<10); err == nil {
		t.Fatal("negative MaxWorkers measured successfully")
	}
}
