package collective_test

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/tune"
)

// The tuned broadcast in three lines: run ranks, fill the root's buffer,
// call the collective with the paper's algorithm pinned.
func ExampleBroadcast() {
	err := engine.Run(4, func(c mpi.Comm) error {
		buf := make([]byte, 4)
		if c.Rank() == 0 {
			copy(buf, []byte{10, 20, 30, 40})
		}
		if err := collective.Broadcast(c, buf, 0, collective.Options{Algorithm: tune.RingOpt}); err != nil {
			return err
		}
		if c.Rank() == 3 {
			fmt.Println("rank 3 received", buf)
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// rank 3 received [10 20 30 40]
}

// The zero Options reproduce MPICH3's dispatch; a tuned MPICH3 tuner
// serves the paper's two target cases with the non-enclosed ring.
func ExampleOptions_Decide() {
	tuned := collective.Options{Tuner: tune.MPICH3{Tuned: true}}
	env := func(n, p int) tune.Env { return tune.Env{Bytes: n, Procs: p, NumNodes: 1} }
	fmt.Println(tuned.Decide(env(1024, 64)).Algorithm)                 // short
	fmt.Println(tuned.Decide(env(65536, 64)).Algorithm)                // medium pow2
	fmt.Println(tuned.Decide(env(65536, 129)).Algorithm)               // medium npof2
	fmt.Println(tuned.Decide(env(1<<20, 64)).Algorithm)                // long
	fmt.Println(collective.Options{}.Decide(env(1<<20, 64)).Algorithm) // long, native
	// Output:
	// binomial
	// scatter-rdb-allgather
	// scatter-ring-allgather-opt
	// scatter-ring-allgather-opt
	// scatter-ring-allgather
}

// Allreduce gives every rank the global sum.
func ExampleAllreduceFloat64() {
	err := engine.Run(5, func(c mpi.Comm) error {
		out := make([]float64, 1)
		if err := collective.AllreduceFloat64(c, []float64{float64(c.Rank())}, out, collective.OpSum); err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Println("sum of ranks:", out[0])
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// sum of ranks: 10
}
