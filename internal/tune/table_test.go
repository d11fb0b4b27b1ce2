package tune

import (
	"os"
	"path/filepath"
	"testing"
)

func TestEnvPredicates(t *testing.T) {
	cases := []struct {
		e     Env
		pow2  bool
		multi bool
	}{
		{Env{Procs: 1}, true, false},
		{Env{Procs: 2, NumNodes: 1}, true, false},
		{Env{Procs: 3, NumNodes: 2}, false, true},
		{Env{Procs: 128, NumNodes: 6}, true, true},
		{Env{Procs: 129}, false, false},
	}
	for _, tc := range cases {
		if got := tc.e.Pow2(); got != tc.pow2 {
			t.Errorf("%+v.Pow2() = %v want %v", tc.e, got, tc.pow2)
		}
		if got := tc.e.MultiNode(); got != tc.multi {
			t.Errorf("%+v.MultiNode() = %v want %v", tc.e, got, tc.multi)
		}
	}
}

func TestRuleMatching(t *testing.T) {
	cases := []struct {
		name string
		r    Rule
		e    Env
		want bool
	}{
		{"empty rule matches everything", Rule{}, Env{Bytes: 5, Procs: 3}, true},
		{"min bytes inclusive", Rule{MinBytes: 100}, Env{Bytes: 100, Procs: 1}, true},
		{"below min bytes", Rule{MinBytes: 100}, Env{Bytes: 99, Procs: 1}, false},
		{"max bytes exclusive", Rule{MaxBytes: 100}, Env{Bytes: 100, Procs: 1}, false},
		{"under max bytes", Rule{MaxBytes: 100}, Env{Bytes: 99, Procs: 1}, true},
		{"min procs inclusive", Rule{MinProcs: 8}, Env{Procs: 8}, true},
		{"below min procs", Rule{MinProcs: 8}, Env{Procs: 7}, false},
		{"max procs inclusive", Rule{MaxProcs: 8}, Env{Procs: 8}, true},
		{"above max procs", Rule{MaxProcs: 8}, Env{Procs: 9}, false},
		{"pow2 yes", Rule{Pow2: "yes"}, Env{Procs: 16}, true},
		{"pow2 yes rejects 10", Rule{Pow2: "yes"}, Env{Procs: 10}, false},
		{"pow2 no", Rule{Pow2: "no"}, Env{Procs: 10}, true},
		{"multi-node yes", Rule{MultiNode: "yes"}, Env{Procs: 4, NumNodes: 2}, true},
		{"multi-node yes rejects single", Rule{MultiNode: "yes"}, Env{Procs: 4, NumNodes: 1}, false},
		{"multi-node no", Rule{MultiNode: "no"}, Env{Procs: 4}, true},
		{"invalid tri-state never matches", Rule{Pow2: "maybe"}, Env{Procs: 4}, false},
	}
	for _, tc := range cases {
		if got := tc.r.Matches(tc.e); got != tc.want {
			t.Errorf("%s: Matches = %v want %v", tc.name, got, tc.want)
		}
	}
}

func TestTableFirstMatchWins(t *testing.T) {
	table := &Table{
		Name: "t",
		Rules: []Rule{
			{MinProcs: 16, MaxProcs: 16, MaxBytes: 1 << 10, Decision: Decision{Algorithm: Binomial}},
			{MinProcs: 16, MaxProcs: 16, Decision: Decision{Algorithm: RingOpt}},
			{Decision: Decision{Algorithm: Chain, SegSize: 4096}},
		},
	}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		e    Env
		want string
	}{
		{Env{Bytes: 512, Procs: 16}, Binomial},
		{Env{Bytes: 1 << 10, Procs: 16}, RingOpt},
		{Env{Bytes: 1 << 20, Procs: 16}, RingOpt},
		{Env{Bytes: 512, Procs: 9}, Chain},
	}
	for _, tc := range cases {
		d, ok := table.Lookup(tc.e)
		if !ok || d.Algorithm != tc.want {
			t.Errorf("Lookup(%+v) = (%+v, %v) want algorithm %q", tc.e, d, ok, tc.want)
		}
	}
	if _, ok := (&Table{}).Lookup(Env{Bytes: 1, Procs: 1}); ok {
		t.Error("empty table must not match")
	}
}

func TestTableTunerFallback(t *testing.T) {
	table := &Table{Rules: []Rule{
		{MinProcs: 64, MaxProcs: 64, Decision: Decision{Algorithm: Chain}},
	}}
	tuner := TableTuner{Table: table, Fallback: MPICH3{Tuned: true}}
	if d := tuner.Decide(Env{Bytes: 1 << 20, Procs: 64}); d.Algorithm != Chain {
		t.Errorf("covered env: got %q", d.Algorithm)
	}
	// Uncovered env falls back to the tuned MPICH3 dispatch.
	if d := tuner.Decide(Env{Bytes: 1 << 20, Procs: 10}); d.Algorithm != RingOpt {
		t.Errorf("fallback: got %q want %q", d.Algorithm, RingOpt)
	}
	// Nil fallback defaults to native MPICH3.
	bare := TableTuner{Table: table}
	if d := bare.Decide(Env{Bytes: 1 << 20, Procs: 10}); d.Algorithm != RingNative {
		t.Errorf("nil fallback: got %q want %q", d.Algorithm, RingNative)
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	table := &Table{
		Name:        "hornet-tuned",
		Description: "test table",
		Rules: []Rule{
			{MinBytes: 1 << 19, MinProcs: 9, Pow2: "no", MultiNode: "yes",
				Decision: Decision{Algorithm: RingOpt}},
			{Decision: Decision{Algorithm: Chain, SegSize: 64 << 10}},
		},
	}
	data, err := table.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != table.Name || len(got.Rules) != len(table.Rules) {
		t.Fatalf("round trip mangled table: %+v", got)
	}
	for i := range table.Rules {
		if got.Rules[i] != table.Rules[i] {
			t.Errorf("rule %d: %+v != %+v", i, got.Rules[i], table.Rules[i])
		}
	}

	path := filepath.Join(t.TempDir(), "table.json")
	if err := SaveTable(table, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Rules[0] != table.Rules[0] {
		t.Errorf("file round trip mangled rule 0: %+v", loaded.Rules[0])
	}
	if _, err := LoadTable(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must fail")
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTable(path); err == nil {
		t.Error("bad JSON must fail")
	}
}

func TestTableValidateRejects(t *testing.T) {
	bad := []Table{
		{Rules: []Rule{{}}}, // empty algorithm
		{Rules: []Rule{{MinBytes: 10, MaxBytes: 10, Decision: Decision{Algorithm: "x"}}}}, // empty byte range
		{Rules: []Rule{{MinProcs: 9, MaxProcs: 8, Decision: Decision{Algorithm: "x"}}}},   // inverted procs
		{Rules: []Rule{{Pow2: "maybe", Decision: Decision{Algorithm: "x"}}}},              // bad tri-state
		{Rules: []Rule{{MultiNode: "si", Decision: Decision{Algorithm: "x"}}}},            // bad tri-state
		{Rules: []Rule{{Decision: Decision{Algorithm: "x", SegSize: -1}}}},                // negative seg
		{Rules: []Rule{{MinBytes: -1, Decision: Decision{Algorithm: "x"}}}},               // negative bytes
		{Rules: []Rule{{Placement: "mesh", Decision: Decision{Algorithm: "x"}}}},          // unknown placement
		{Rules: []Rule{{CoresPerNode: -1, Decision: Decision{Algorithm: "x"}}}},           // negative cores
	}
	for i, tb := range bad {
		if err := tb.Validate(); err == nil {
			t.Errorf("table %d must fail validation", i)
		}
	}
	// ParseTable validates too.
	if _, err := ParseTable([]byte(`{"name":"t","rules":[{"decision":{"algorithm":""}}]}`)); err == nil {
		t.Error("ParseTable must validate")
	}
}

func TestMPICH3KnownPoints(t *testing.T) {
	// Spot checks straight from the paper's Section V description; the
	// threshold-seam table lives in internal/collective's
	// TestDefaultTunerGolden.
	cases := []struct {
		n, p  int
		tuned bool
		want  string
	}{
		{1024, 64, false, Binomial},
		{1 << 20, 7, true, Binomial},
		{12288, 64, false, ScatterRdb},
		{524287, 16, true, ScatterRdb},
		{12288, 9, false, RingNative},
		{12288, 9, true, RingOpt},
		{1 << 20, 129, false, RingNative},
		{1 << 20, 129, true, RingOpt},
	}
	for _, tc := range cases {
		d := MPICH3{Tuned: tc.tuned}.Decide(Env{Bytes: tc.n, Procs: tc.p})
		if d.Algorithm != tc.want {
			t.Errorf("MPICH3{%v}.Decide(n=%d, p=%d) = %q want %q", tc.tuned, tc.n, tc.p, d.Algorithm, tc.want)
		}
	}
}
