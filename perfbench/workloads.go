package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"bsched/internal/ir"
	"bsched/internal/server"
	"bsched/internal/workload"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlCold = "cold-compile"
	wlHot  = "hot-hits"
	wlBig  = "big-blocks"
)

// Sizing of the inputs. README.md explains each choice.
const (
	// hotVariants is how many renamed variants of each base program
	// make up the hot-hits hot set: 8 variants × 50 blocks per base
	// set = 400 blocks, against a block cache of
	// server.DefaultCacheCapacity (1024) entries in 16 shards of 64.
	hotVariants = 8
	// hotZipfS is the Zipf exponent of the variant pick.
	hotZipfS = 1.2
	// bigPoolSeed fixes the random blocks of big-blocks: only their
	// order and renaming depend on --seed, so every run compiles the
	// same work.
	bigPoolSeed = 19930623
	// bigPoolSizes are the instruction counts of the big-blocks pool.
	bigPoolMin, bigPoolMax, bigPoolLen = 256, 512, 8
	// listRequests is the length of a timed request list; a run that
	// outlasts it starts the list over. Between two sends of one
	// request the 1999 others insert 2000 to 10000 blocks, far more
	// than a 64-entry shard of the block cache keeps, so a resent cold
	// request still misses (the checks confirm it does).
	listRequests = 2000
	// The peak_rss_mb windows: about five seconds of the timed phase on
	// the machine of README.md. On cold-compile the block cache is full
	// within the first 200 requests; on big-blocks it never fills in a
	// run, so there the window fixes how many big schedules it holds.
	coldRSSWindow, hotRSSWindow, bigRSSWindow = 2000, 15000, 160
)

// request is one POST /v1/compile: the encoded body, plus the base
// program it renames (index into the workload's base list) and, on
// hot-hits, which variant it is.
type request struct {
	body    []byte
	base    int
	variant int
}

// workloadSpec generates a workload's inputs. Every run attempts
// whole rounds: one round holds each base program once, in an order
// drawn from the seed, so the work per round is the same on every
// seed and per-request figures do not depend on where a run stops.
type workloadSpec struct {
	name  string
	bases []*ir.Program
	// round builds round r of a request list; tag keeps the
	// renamed symbols of distinct lists (warm-up, timed) apart.
	round func(rng *rand.Rand, tag string, r int) []request
	// fill is the set-up traffic that runs before timing: the hot set
	// on hot-hits, one warm round elsewhere.
	fill func(rng *rand.Rand) []request
	// roundSize is len(round(...)).
	roundSize int
	// rssWindow is how many timed requests peak_rss_mb is sampled
	// over, whole rounds; a timed phase lasts at least that long.
	rssWindow int
}

// basePrograms returns the eight Perfect Club analogues followed by the
// Livermore and integer-mix programs.
func basePrograms() []*ir.Program {
	var out []*ir.Program
	for _, n := range workload.BenchmarkNames() {
		out = append(out, workload.Benchmark(n))
	}
	return append(out, workload.Livermore(), workload.IntMix())
}

// perfectCount is how many leading entries of basePrograms are Perfect
// Club analogues.
var perfectCount = len(workload.BenchmarkNames())

// bigPool returns the big-blocks base set: one single-block program per
// pool size, generated from bigPoolSeed.
func bigPool() []*ir.Program {
	rng := rand.New(rand.NewSource(bigPoolSeed))
	var out []*ir.Program
	for i := 0; i < bigPoolLen; i++ {
		n := bigPoolMin + i*(bigPoolMax-bigPoolMin)/(bigPoolLen-1)
		b := workload.Random(rng, workload.DefaultRandomParams(n))
		b.Label = fmt.Sprintf("big%d", n)
		out = append(out, &ir.Program{
			Name:  fmt.Sprintf("BIG%d", n),
			Funcs: []*ir.Func{{Name: "big", Blocks: []*ir.Block{b}}},
		})
	}
	return out
}

func newWorkload(name string) (*workloadSpec, error) {
	switch name {
	case wlCold, wlBig:
		bases := basePrograms()
		if name == wlBig {
			bases = bigPool()
		}
		w := &workloadSpec{name: name, bases: bases, roundSize: len(bases), rssWindow: coldRSSWindow}
		if name == wlBig {
			w.rssWindow = bigRSSWindow
		}
		w.round = func(rng *rand.Rand, tag string, r int) []request {
			var out []request
			for i, b := range rng.Perm(len(bases)) {
				suffix := fmt.Sprintf("%s%06d", tag, r*len(bases)+i)
				out = append(out, request{body: encode(rename(bases[b], suffix)), base: b})
			}
			return out
		}
		w.fill = func(rng *rand.Rand) []request { return w.round(rng, "w", 0) }
		return w, nil
	case wlHot:
		bases := basePrograms()
		w := &workloadSpec{name: name, bases: bases, roundSize: len(bases), rssWindow: hotRSSWindow}
		// The hot set's bodies are built once: a timed request reuses
		// the exact bytes the fill compiled.
		hot := make([][][]byte, len(bases))
		for b, p := range bases {
			for v := 0; v < hotVariants; v++ {
				hot[b] = append(hot[b], encode(rename(p, fmt.Sprintf("h%02d", v))))
			}
		}
		w.round = func(rng *rand.Rand, _ string, _ int) []request {
			z := rand.NewZipf(rng, hotZipfS, 1, hotVariants-1)
			var out []request
			for _, b := range rng.Perm(len(bases)) {
				v := int(z.Uint64())
				out = append(out, request{body: hot[b][v], base: b, variant: v})
			}
			return out
		}
		w.fill = func(*rand.Rand) []request {
			var out []request
			for v := 0; v < hotVariants; v++ {
				for b := range bases {
					out = append(out, request{body: hot[b][v], base: b, variant: v})
				}
			}
			return out
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wlCold, wlHot, wlBig)
}

// list builds the timed request list: whole rounds, listRequests
// requests or just over.
func (w *workloadSpec) list(rng *rand.Rand) []request {
	var out []request
	for r := 0; len(out) < listRequests; r++ {
		out = append(out, w.round(rng, "t", r)...)
	}
	return out
}

// rename returns a copy of p whose every memory symbol carries suffix.
// The renaming is a bijection on symbols, so it keeps the aliasing
// structure, and with it the work of compiling the copy, while giving
// every block a new content fingerprint: the copy misses every cache
// yet costs the same to compile.
func rename(p *ir.Program, suffix string) *ir.Program {
	c := p.Clone()
	for _, b := range c.Blocks() {
		for _, in := range b.Instrs {
			if in.Sym != "" {
				in.Sym = in.Sym + "_" + suffix
			}
		}
	}
	return c
}

// encode renders a program as a default-options compile request body.
func encode(p *ir.Program) []byte {
	body, err := json.Marshal(server.CompileRequest{Program: p.String()})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return body
}
