package collective

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/tune"
)

// runProgram executes a generated schedule on the real engine and checks
// the broadcast postcondition.
func runProgram(t *testing.T, pr *sched.Program, opts engine.Options) {
	t.Helper()
	want := pattern(pr.N)
	err := engine.RunWith(opts, func(c mpi.Comm) error {
		buf := make([]byte, pr.N)
		if c.Rank() == pr.Root {
			copy(buf, want)
		}
		if err := ExecProgram(c, pr, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: buffer mismatch at %d", c.Rank(), firstDiff(buf, want))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", pr.Name, err)
	}
}

// TestExecGeneratedPrograms runs every schedule generator's output on the
// real engine — the schedule world and the executable world must move
// identical bytes.
func TestExecGeneratedPrograms(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 10, 16} {
		for _, root := range []int{0, p - 1} {
			n := 32*p + 3
			programs := []*sched.Program{
				core.BcastNativeProgram(p, root, n),
				core.BcastOptProgram(p, root, n),
				core.BinomialBcast(p, root, n),
				core.ChainBcast(p, root, n, 64),
			}
			if core.IsPow2(p) {
				programs = append(programs, core.BcastRdbProgram(p, root, n))
			}
			for _, pr := range programs {
				runProgram(t, pr, engine.Options{NP: p})
			}
		}
	}
}

func TestExecNodeAwareProgramOnEngine(t *testing.T) {
	topo := topology.RoundRobin(9, 3)
	pr, err := core.BcastOptNodeAware(topo, 4, 300)
	if err != nil {
		t.Fatal(err)
	}
	runProgram(t, pr, engine.Options{NP: 9, Topology: topo})
}

func TestExecValidation(t *testing.T) {
	err := engine.Run(2, func(c mpi.Comm) error {
		pr := core.BinomialBcast(3, 0, 8) // wrong size
		if err := ExecProgram(c, pr, make([]byte, 8)); err == nil {
			return fmt.Errorf("rank-count mismatch must fail")
		}
		pr2 := core.BinomialBcast(2, 0, 8)
		if err := ExecProgram(c, pr2, make([]byte, 4)); err == nil {
			return fmt.Errorf("short buffer must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastChainCollective(t *testing.T) {
	for _, p := range []int{1, 2, 5, 9} {
		for _, seg := range []int{0, 50} {
			runBcast(t, "chain", algoSeg(tune.Chain, seg), engine.Options{NP: p}, p/2, 10*p+7)
		}
	}
}
