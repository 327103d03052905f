package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"

	"bsched/internal/compile"
	"bsched/internal/ir"
	"bsched/internal/machine"
	"bsched/internal/memlat"
	"bsched/internal/sim"
)

// Simulation settings of the code-quality figures (§4.3 of the paper):
// 30 trials per block on the UNLIMITED processor, latencies drawn from
// a stream seeded by the block's position, never by --seed, so the
// figures depend on nothing but the schedules simulated.
const (
	simTrials = 30
	simSeed   = 1993
)

// simCost is the frequency-weighted mean runtime and interlock cycles
// of a program on one memory system.
type simCost struct{ cycles, interlocks float64 }

// simulate runs every block of p on the UNLIMITED processor under the
// memory system's latency model. The stream of block i of base program
// base on system sys is the same whatever the schedule, so two
// schedules of one block are compared on the same draws.
func simulate(p *ir.Program, base, sys int, model memlat.Model) simCost {
	var c simCost
	for i, b := range p.Blocks() {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%d/%d", base, i, sys)
		rng := rand.New(rand.NewSource(simSeed ^ int64(h.Sum64())))
		mem := memlat.ForStream(model)
		var cyc, il int
		for t := 0; t < simTrials; t++ {
			st := sim.RunBlock(b.Instrs, machine.UNLIMITED(), mem, rng, sim.Options{})
			cyc += st.Cycles
			il += st.Interlocks
		}
		c.cycles += b.Freq * float64(cyc) / simTrials
		c.interlocks += b.Freq * float64(il) / simTrials
	}
	return c
}

// codeQuality sums, over the twelve paper systems and every base
// program's served schedule, the frequency-weighted simulated cycles
// and interlock cycles.
func codeQuality(first map[int]*ir.Program, nbases int) (cycles, interlocks float64, err error) {
	for b := 0; b < nbases; b++ {
		s, ok := first[b]
		if !ok {
			return 0, 0, fmt.Errorf("no served schedule of base program %d", b)
		}
		for sys, system := range memlat.PaperSystems() {
			c := simulate(s, b, sys, system.Model)
			cycles += c.cycles
			interlocks += c.interlocks
		}
	}
	return cycles, interlocks, nil
}

// paperCheck checks the paper's claim on the served schedules: for each
// Perfect Club analogue, balanced schedules run faster than traditional
// ones averaged over the twelve systems. The traditional schedules are
// compiled here, outside the daemon, at each system's first optimistic
// latency (Table 2). It returns the per-program ratio of balanced to
// traditional cycles, the mean of the per-system ratios.
func paperCheck(first map[int]*ir.Program, bases []*ir.Program) ([]float64, error) {
	systems := memlat.PaperSystems()
	var ratios []float64
	for b := 0; b < perfectCount; b++ {
		s, ok := first[b]
		if !ok {
			return nil, fmt.Errorf("no served schedule of %s", bases[b].Name)
		}
		trad := make(map[float64]*ir.Program)
		sum := 0.0
		for sys, system := range systems {
			lat := system.OptLats[0]
			tp, ok := trad[lat]
			if !ok {
				res, err := compile.Run(context.Background(), bases[b], compile.Options{Scheduler: compile.Traditional, TradLatency: lat})
				if err != nil {
					return nil, fmt.Errorf("traditional compile of %s: %w", bases[b].Name, err)
				}
				tp = res.Program
				trad[lat] = tp
			}
			bal := simulate(s, b, sys, system.Model)
			tr := simulate(tp, b, sys, system.Model)
			sum += bal.cycles / tr.cycles
		}
		r := sum / float64(len(systems))
		ratios = append(ratios, r)
		if r >= 1 {
			return ratios, fmt.Errorf("%s: balanced schedules take %.4f× the cycles of traditional ones", bases[b].Name, r)
		}
	}
	return ratios, nil
}
