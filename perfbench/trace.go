package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"bsched/internal/compile"
	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/regalloc"
	"bsched/internal/sched"
	"bsched/internal/server"
)

// Span lanes of the Chrome trace.
const (
	laneHandler = 1
	laneReplay  = 2
)

// span is one timed call of the traced run.
type span struct {
	name   string
	lane   int
	start  time.Duration // since the pass began
	dur    time.Duration
	cpu    time.Duration // process CPU time
	allocs uint64
	req    int
	block  string
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
	ms     [2]runtime.MemStats
}

// measure times fn with a MemStats delta around it, records it as a
// replay span and returns the process CPU time it took. Layer figures
// are CPU times: on a host whose hypervisor steals most of the wall
// clock, CPU time is what a layer costs.
func (t *tracer) measure(name string, req int, block string, fn func()) time.Duration {
	runtime.ReadMemStats(&t.ms[0])
	start, cpu0 := time.Now(), cpuTime()
	fn()
	d, cpu := time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&t.ms[1])
	t.spans = append(t.spans, span{name: name, lane: laneReplay, start: start.Sub(t.origin), dur: d, cpu: cpu,
		allocs: t.ms[1].Mallocs - t.ms[0].Mallocs, req: req, block: block})
	return cpu
}

// reqTrace is what a single-caller pass learned about one request.
type reqTrace struct {
	handler, cpu       time.Duration
	parse, fingerprint time.Duration
	compile            time.Duration // replayed compile.RunBlock of its missed blocks
	parseAllocs        uint64
	respBytes          int
	// Sums over the response's block summaries.
	blocks, vnops, spills int
	work                  int64
}

// runTraced is the traced run: an untraced single-caller pass over a
// request list, then a traced single-caller pass over the same list,
// each on a fresh daemon; the traced one replays each request through
// the layers' public calls.
func runTraced(cfg config, w *workloadSpec, rep *report, put func(string, string, float64), out io.Writer) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	fill := w.fill(rng)

	// Untraced pass: the baseline of the tracing overhead. It runs whole
	// rounds for a third of the run, up to one pass over the list so
	// that it never resends a request; the traced pass repeats them.
	reqs := w.list(rng)
	base, _, _, err := singlePass(nil, w, fill, reqs, time.Duration(cfg.seconds)*time.Second/3)
	if err != nil {
		return fmt.Errorf("untraced pass: %w", err)
	}
	base = base[len(fill):]
	list := reqs[:len(base)]

	t := &tracer{origin: time.Now()}
	traces, chk, counters, err := singlePass(t, w, fill, list, 0)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	rep.Attempted = len(list)

	n := float64(len(list))
	var blocks, compiledN int
	var self, parse, parseAllocs, fp, respBytes, vnops, spills, work float64
	var baseWall, baseCPU, traceWall, traceCPU time.Duration
	for i, tr := range traces[len(fill):] {
		self += float64(tr.cpu - tr.parse - tr.fingerprint - tr.compile)
		parse += float64(tr.parse)
		parseAllocs += float64(tr.parseAllocs)
		fp += float64(tr.fingerprint)
		respBytes += float64(tr.respBytes)
		blocks += tr.blocks
		vnops += float64(tr.vnops)
		spills += float64(tr.spills)
		work += float64(tr.work)
		traceWall += tr.handler
		traceCPU += tr.cpu
		baseWall += base[i].handler
		baseCPU += base[i].cpu
	}
	layer := aggregate(t.spans)
	compiledN = layer["compile.RunBlock"].calls
	perBlock := func(name string) (time.Duration, float64) {
		l := layer[name]
		if compiledN == 0 {
			return 0, 0
		}
		return l.cpu / time.Duration(compiledN), float64(l.allocs) / float64(compiledN)
	}
	_, interlocks, err := codeQuality(chk.first, len(w.bases))
	if err != nil {
		return err
	}
	us := func(ns float64) float64 { return ns / float64(time.Microsecond) }

	put("server.self_us", "us", us(self/n))
	put("server.resp_kb", "KiB", respBytes/n/1024)
	put("ir.parse_us", "us", us(parse/n))
	put("ir.parse_allocs", "count", parseAllocs/n)
	put("ir.fingerprint_us", "us", us(fp/n))
	hitRatio := 0.0
	if l := counters.lookups(); l > 0 {
		hitRatio = float64(counters.BlockHits) / float64(l)
	}
	put("engine.hit_ratio", "ratio", hitRatio)
	put("engine.blocks_compiled", "count", float64(counters.BlockMisses)/n)
	rb, _ := perBlock("compile.RunBlock")
	put("compile.block_ms", "ms", float64(rb)/float64(time.Millisecond))
	put("compile.work_units", "units", work/float64(blocks))
	db, _ := perBlock("deps.Build")
	put("deps.build_us", "us", us(float64(db)))
	wd, wa := perBlock("core.Weights")
	put("core.weights_ms", "ms", float64(wd)/float64(time.Millisecond))
	put("core.weights_allocs", "count", wa)
	sd, _ := perBlock("sched.ScheduleWith")
	put("sched.list_us", "us", us(float64(sd)))
	put("sched.vnops", "count", vnops/n)
	rd, _ := perBlock("regalloc.Run")
	put("regalloc.run_us", "us", us(float64(rd)))
	put("regalloc.spill_instrs", "count", spills/n)
	put("sim.interlock_cycles", "cycles", interlocks)
	put("bench.trace_overhead_pct", "%", (float64(traceCPU)/float64(baseCPU)-1)*100)

	fmt.Fprintf(out, "traced pass: %d set-up and %d timed requests, %d blocks compiled and replayed; self time per layer:\n",
		len(fill), len(list), compiledN)
	names := make([]string, 0, len(layer))
	for name := range layer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := layer[name]
		fmt.Fprintf(out, "  %-20s calls %6d  %10.3f ms CPU  allocs %10d\n", name, l.calls, float64(l.cpu)/float64(time.Millisecond), l.allocs)
	}
	ms := func(d time.Duration) float64 { return float64(d) / n / float64(time.Millisecond) }
	fmt.Fprintf(out, "  per request: untraced %.3f ms CPU, %.3f ms wall; traced handler %.3f ms CPU, %.3f ms wall\n",
		ms(baseCPU), ms(baseWall), ms(traceCPU), ms(traceWall))
	path, err := writeChromeTrace(cfg, t)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "chrome trace: %s (%d spans)\n", path, len(t.spans))
	return nil
}

// singlePass sends the set-up traffic and then the list to a fresh
// daemon from one caller, timing every handler call and checking its
// response outside the timing. With d > 0 it sends whole rounds of the
// list until d has elapsed, at most the whole list. With a tracer it
// records a span per call and then replays each request through the
// layers: ir.Parse and Fingerprint always, and the compile pipeline for
// every block the daemon had not seen before. The replay comes after
// the last call, so that the garbage it makes is not collected inside
// the timed calls; the two passes differ in nothing else. It returns
// one reqTrace per request sent (set-up first), the checker of the
// responses, and the block counters of the list alone.
func singlePass(t *tracer, w *workloadSpec, fill, list []request, d time.Duration) ([]reqTrace, *checker, blockCounters, error) {
	var none blockCounters
	srv, err := newServer()
	if err != nil {
		return nil, nil, none, err
	}
	defer srv.Close()
	h := srv.Handler()
	chk := newChecker(w)
	inline := chk.inline()
	var traces []reqTrace
	var c0 blockCounters
	all := append(append([]request(nil), fill...), list...)
	rec := &recorder{}
	var start time.Time
	for i := range all {
		if k := i - len(fill); k == 0 {
			if c0, err = readCounters(h); err != nil {
				return nil, nil, none, err
			}
			start = time.Now()
		} else if d > 0 && k > 0 && k%w.roundSize == 0 && time.Since(start) >= d {
			break
		}
		r := &all[i]
		cpu0 := cpuTime()
		lat := call(h, rec, r.body)
		cpu := cpuTime() - cpu0
		if t != nil {
			t.spans = append(t.spans, span{name: "server.ServeHTTP", lane: laneHandler,
				start: time.Since(t.origin) - lat, dur: lat, cpu: cpu, req: i})
		}
		tr, err := chk.served(r, rec, inline, i < len(fill))
		if err != nil {
			return nil, nil, none, err
		}
		tr.handler, tr.cpu = lat, cpu
		traces = append(traces, tr)
	}
	c1, err := readCounters(h)
	if err != nil {
		return nil, nil, none, err
	}
	if t == nil {
		return traces, chk, c1.minus(c0), nil
	}
	seen := make(map[uint64]bool)
	for i := range traces {
		if err := t.replay(i, &all[i], seen, &traces[i]); err != nil {
			return nil, nil, none, err
		}
	}
	// The replay compiles exactly the blocks the daemon compiled.
	replayed := 0
	for _, s := range t.spans {
		if s.name == "compile.RunBlock" {
			replayed++
		}
	}
	if int64(replayed) != c1.BlockMisses {
		return nil, nil, none, fmt.Errorf("replayed %d block compiles, the daemon counted %d misses", replayed, c1.BlockMisses)
	}
	return traces, chk, c1.minus(c0), nil
}

// served checks a single-caller pass's response to r, as the timed
// phase would plus a full check of every response it would keep, and
// sums up its block summaries.
func (c *checker) served(r *request, rec *recorder, inline inlineCheck, fill bool) (reqTrace, error) {
	body := rec.body.Bytes()
	keep, err := true, error(nil)
	if !fill {
		keep, err = inline(r, rec.code, body)
	}
	if err == nil && keep {
		err = c.check(result{req: r, code: rec.code, body: bytes.Clone(body)}, fill)
	}
	if err != nil {
		return reqTrace{}, err
	}
	var resp server.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return reqTrace{}, err
	}
	tr := reqTrace{respBytes: len(body)}
	for _, b := range resp.Blocks {
		tr.blocks++
		tr.vnops += b.VNops1
		tr.spills += b.SpillLoads + b.SpillStores
		tr.work += b.WorkUsed
	}
	return tr, nil
}

// replay runs request i through the public calls the daemon makes.
func (t *tracer) replay(i int, r *request, seen map[uint64]bool, tr *reqTrace) error {
	var body server.CompileRequest
	if err := json.Unmarshal(r.body, &body); err != nil {
		return err
	}
	var prog *ir.Program
	var err error
	tr.parse = t.measure("ir.Parse", i, "", func() { prog, err = ir.Parse(body.Program) })
	if err != nil {
		return err
	}
	tr.parseAllocs = t.spans[len(t.spans)-1].allocs
	// The daemon fingerprints the program twice, once for its trace
	// attributes and once in the response, and every block for its
	// cache key.
	blocks := prog.Blocks()
	fps := make([]uint64, len(blocks))
	tr.fingerprint = t.measure("ir.Fingerprint", i, "", func() {
		prog.Fingerprint()
		for k, b := range blocks {
			fps[k] = b.Fingerprint()
		}
		prog.Fingerprint()
	})
	for k, b := range blocks {
		if seen[fps[k]] {
			continue
		}
		seen[fps[k]] = true
		d, err := t.replayBlock(i, b)
		if err != nil {
			return err
		}
		tr.compile += d
	}
	return nil
}

// replayBlock compiles one block with compile.RunBlock, the reference
// parent, and then once more stage by stage: deps.Build, core.Weights,
// sched.ScheduleWith, regalloc.Run, and pass 2's deps.Build,
// core.Weights and sched.ScheduleWith. The two pass-1 schedules must
// agree. (The final blocks are not compared: regalloc.Run breaks ties
// between eviction victims in map order, so two allocations of one
// schedule can differ.)
func (t *tracer) replayBlock(i int, b *ir.Block) (time.Duration, error) {
	var ref *compile.BlockResult
	var err error
	d := t.measure("compile.RunBlock", i, b.Label, func() { ref, err = compile.RunBlock(context.Background(), b, compile.Options{}) })
	if err != nil {
		return 0, err
	}
	work := b.Clone()
	ir.Renumber(work)
	pass := func(blk *ir.Block) (*ir.Block, *sched.Result) {
		var g *deps.Graph
		var w []float64
		var res *sched.Result
		t.measure("deps.Build", i, b.Label, func() { g = deps.Build(blk, deps.BuildOptions{}) })
		t.measure("core.Weights", i, b.Label, func() { w = core.Weights(g, core.Options{}) })
		t.measure("sched.ScheduleWith", i, b.Label, func() {
			res = sched.ScheduleWith(g, func(*deps.Graph) []float64 { return w }, sched.Heuristics{})
		})
		return &ir.Block{Label: blk.Label, Freq: blk.Freq, Instrs: res.Order, LiveOut: blk.LiveOut}, res
	}
	scheduled, pass1 := pass(work)
	if !slices.Equal(pass1.Perm, ref.Pass1.Perm) {
		return 0, errors.New("stage-by-stage replay of block " + b.Label + " schedules pass 1 differently from compile.RunBlock")
	}
	ir.Renumber(scheduled)
	t.measure("regalloc.Run", i, b.Label, func() { _, err = regalloc.Run(scheduled, regalloc.DefaultConfig()) })
	if err != nil {
		return 0, err
	}
	pass(scheduled)
	return d, nil
}

// layerTotal sums one span name.
type layerTotal struct {
	calls  int
	cpu    time.Duration
	allocs uint64
}

func aggregate(spans []span) map[string]layerTotal {
	out := make(map[string]layerTotal)
	for _, s := range spans {
		if s.lane != laneReplay {
			continue
		}
		l := out[s.name]
		l.calls++
		l.cpu += s.cpu
		l.allocs += s.allocs
		out[s.name] = l
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing load.
func writeChromeTrace(cfg config, t *tracer) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: laneHandler, Args: map[string]any{"name": "handler"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: laneReplay, Args: map[string]any{"name": "replay"}},
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range t.spans {
		args := map[string]any{"req": s.req}
		if s.block != "" {
			args["block"] = s.block
		}
		args["cpu_us"] = us(s.cpu)
		if s.lane == laneReplay {
			args["allocs"] = s.allocs
		}
		events = append(events, event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur), Pid: 1, Tid: s.lane, Args: args})
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
