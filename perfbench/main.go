// Command perfbench is bschedd's benchmark. It starts an in-process
// daemon with its default configuration, drives Server.Handler()
// directly from closed-loop callers (no sockets), checks every response
// against independent references, and prints every metric by name and
// unit. The last line of its output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//
//	perfbench --workload cold-compile|hot-hits|big-blocks --seed N --seconds S --trace 0|1
//	perfbench steady [--runs N] [--seed N]
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// makes a separate single-caller traced pass and reports the per-layer
// metrics. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"bsched/internal/server"
	"bsched/internal/stats"
)

// setupRuns is how many times a run sets up its daemon; setup_s is the
// median of their process CPU times. Set-up is CPU-bound work on two
// cores, and its wall time varies about twice as much on the 2-vCPU
// machine of README.md.
const setupRuns = 5

// traceDir receives the Chrome trace of a traced run; like the build,
// it lives under the checkout's .bench_build/.
const traceDir = ".bench_build/perfbench"

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metric is one figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+wlCold+", "+wlHot+" or "+wlBig)
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the request list")
	fs.IntVar(&cfg.seconds, "seconds", 10, "how long the timed phase runs")
	fs.IntVar(&trace, "trace", 0, "1 makes the traced run and reports the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run makes one benchmark run and returns its result line; it prints
// its human-readable figures to out.
func run(cfg config, out io.Writer) (*report, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: true, Metrics: make(map[string]metric)}
	put := func(name, unit string, v float64) {
		rep.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(out, "%-26s %16.6g %s\n", name, v, unit)
	}
	fmt.Fprintf(out, "workload %s, seed %d, %d s, %d callers, GOMAXPROCS %d\n",
		w.name, cfg.seed, cfg.seconds, callers, runtime.GOMAXPROCS(0))
	if cfg.trace {
		err = runTraced(cfg, w, rep, put, out)
	} else {
		err = runTimed(cfg, w, rep, put, out)
	}
	var fail checkFailure
	if errors.As(err, &fail) {
		// A failed check outside the timed phase ends the run; its result
		// line says so.
		rep.Correct = false
		fmt.Fprintf(out, "check failed: %v\n", err)
		return rep, nil
	}
	return rep, err
}

// setUp starts a daemon and sends it the workload's set-up traffic from
// the closed-loop callers. It returns the server, the checker that
// verified the set-up responses, and the set-up's wall and process CPU
// time (the checks excluded). Each set-up starts from a collected heap,
// so that it does not pay for the garbage of the one before.
func setUp(w *workloadSpec, fill []request) (*server.Server, *checker, time.Duration, time.Duration, error) {
	runtime.GC()
	kept, err := newSpool()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer kept.close()
	start, cpu0 := time.Now(), cpuTime()
	srv, err := newServer()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	closedLoop(srv.Handler(), fill, w.roundSize, callers, 0, nil, kept, nil)
	wall, cpu := time.Since(start), cpuTime()-cpu0
	c := newChecker(w)
	if err := kept.each(func(r result) error { return c.check(r, true) }); err != nil {
		srv.Close()
		return nil, nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	return srv, c, wall, cpu, nil
}

// runTimed is the untraced run: set-up (several times, median), then
// the closed-loop timed phase, then the output checks.
func runTimed(cfg config, w *workloadSpec, rep *report, put func(string, string, float64), out io.Writer) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	fill := w.fill(rng)
	reqs := w.list(rng)
	var (
		srv      *server.Server
		chk      *checker
		setups   []float64
		setupCPU []float64
	)
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.Close()
		}
		s, c, wall, cpu, err := setUp(w, fill)
		if err != nil {
			return err
		}
		srv, chk = s, c
		setups = append(setups, wall.Seconds())
		setupCPU = append(setupCPU, cpu.Seconds())
	}
	defer srv.Close()
	kept, err := newSpool()
	if err != nil {
		return err
	}
	defer kept.close()

	// Return the earlier set-ups' freed memory to the system, so that
	// the resident set holds the serving daemon, not the scavenger's
	// backlog.
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rss := startRSSSampler(w.rssWindow)
	cpu0 := cpuTime()
	res := closedLoop(srv.Handler(), reqs, w.roundSize, callers, time.Duration(cfg.seconds)*time.Second, chk.inline(), kept, rss)
	cpu := cpuTime() - cpu0
	peak := rss.peakMB()
	runtime.ReadMemStats(&ms1)

	rep.Attempted = res.attempted
	fails := res.errs
	err = kept.each(func(r result) error {
		if err := chk.check(r, false); errors.Is(err, errFailed) {
			rep.Failed++
		} else if err != nil {
			fails = append(fails, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(fails) > 0 {
		rep.Correct = false
		fmt.Fprintf(out, "check failed on %d responses, first: %v\n", len(fails), fails[0])
	}
	done := float64(rep.Attempted - rep.Failed)
	if done == 0 {
		return errors.New("every request failed")
	}
	lats := make([]float64, len(res.lats))
	for i, l := range res.lats {
		lats[i] = float64(l) / float64(time.Millisecond)
	}
	sort.Float64s(lats)
	cycles, _, err := codeQuality(chk.first, len(w.bases))
	if err != nil {
		return err
	}

	put("setup_s", "s", median(setupCPU))
	put("cpu_ms_per_req", "ms", float64(cpu)/float64(time.Millisecond)/done)
	put("allocs_per_req", "count", float64(ms1.Mallocs-ms0.Mallocs)/done)
	put("peak_rss_mb", "MB", peak)
	put("code_cycles", "cycles", cycles)
	// Wall-clock figures: printed, but too unsteady on a shared 2-vCPU
	// machine to carry a bound (README.md, "Reference figures").
	p := tail(lats)
	fmt.Fprintf(out, "reference: req_per_s %.4f 1/s over %.3f s; lat_p50_ms %.4f and lat_p%g_ms %.4f over %d samples (%d beyond it); attempted %d, failed %d\n",
		done/res.elapsed.Seconds(), res.elapsed.Seconds(), stats.Percentile(lats, 50), p, stats.Percentile(lats, p), len(lats), int(float64(len(lats))*(100-p)/100), rep.Attempted, rep.Failed)
	fmt.Fprintf(out, "reference: set-ups %.4f s CPU, %.4f s wall\n", setupCPU, setups)
	if w.name != wlBig {
		ratios, err := paperCheck(chk.first, w.bases)
		for i, r := range ratios {
			fmt.Fprintf(out, "paper check: %-7s balanced/traditional cycles %.4f\n", w.bases[i].Name, r)
		}
		if err != nil {
			rep.Correct = false
			fmt.Fprintf(out, "check failed: %v\n", err)
		}
	}
	return nil
}

// tail picks the highest of p99, p95 and p90 that has at least ten
// samples beyond it.
func tail(sorted []float64) float64 {
	for _, p := range []float64{99, 95, 90} {
		if float64(len(sorted))*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, 50)
}
