package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bsched/internal/obs"
	"bsched/internal/server"
	"bsched/internal/stats"
)

// callers is the number of closed-loop callers of the timed phase: one
// per core of the 2-core host the reference figures come from, each
// waiting for its schedule before it sends the next request, as a build
// tool does.
const callers = 2

// newServer starts an in-process bschedd configured as the daemon is
// when given no flags: every flag default is the zero Config field's
// default. Only the request log differs; it goes to a discarded writer.
func newServer() (*server.Server, error) {
	return server.New(server.Config{Logger: obs.NewLogger(io.Discard, obs.FormatKV)})
}

var compileURL = &url.URL{Path: "/v1/compile"}

// recorder is a minimal http.ResponseWriter: the handler's status,
// headers and body, with nothing a socket would add.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

// result is one completed request whose response is kept for the full
// check.
type result struct {
	req  *request
	code int
	body []byte
}

// spool holds the responses kept for the full check in a file under
// traceDir until the timed phase is over. Held on the heap they would
// count toward peak_rss_mb, and the more so the faster the daemon
// served them.
type spool struct {
	mu   sync.Mutex
	f    *os.File
	size int64
	err  error // the first failed write
	kept []spooled
}

// spooled locates one kept response in the spool file.
type spooled struct {
	req  *request
	code int
	off  int64
	n    int
}

func newSpool() (*spool, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(traceDir, "kept-*.bin")
	if err != nil {
		return nil, err
	}
	return &spool{f: f}, nil
}

func (s *spool) add(r *request, code int, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if _, s.err = s.f.Write(body); s.err == nil {
		s.kept = append(s.kept, spooled{req: r, code: code, off: s.size, n: len(body)})
		s.size += int64(len(body))
	}
}

// each reads the kept responses back, in the order they were kept, and
// calls fn on each until it returns an error.
func (s *spool) each(fn func(result) error) error {
	if s.err != nil {
		return fmt.Errorf("spool kept responses: %w", s.err)
	}
	for _, k := range s.kept {
		body := make([]byte, k.n)
		if _, err := s.f.ReadAt(body, k.off); err != nil {
			return fmt.Errorf("read kept responses back: %w", err)
		}
		if err := fn(result{req: k.req, code: k.code, body: body}); err != nil {
			return err
		}
	}
	return nil
}

// close removes the spool file.
func (s *spool) close() {
	s.f.Close()
	os.Remove(s.f.Name())
}

// call sends one compile request straight into the handler, recording
// into rec, and returns the time from the call until it returned.
func call(h http.Handler, rec *recorder, body []byte) time.Duration {
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           compileURL,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Host:          "bench",
		RemoteAddr:    "127.0.0.1:1",
		RequestURI:    compileURL.Path,
	}
	rec.hdr, rec.code = make(http.Header), 0
	rec.body.Reset()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(start)
}

// loopResult is what a closed loop saw.
type loopResult struct {
	attempted int
	elapsed   time.Duration
	lats      []time.Duration // every request's latency, in completion order per caller
	errs      []error         // inline checks that failed
}

// inlineCheck looks at a response as it arrives, on the caller's
// goroutine: it reports whether to keep the body for the full check
// after timing, or an error.
type inlineCheck func(r *request, code int, body []byte) (keep bool, err error)

// closedLoop sends requests to h from n callers, each sending its next
// request when the previous one returns. Request k of the run is
// reqs[k % len(reqs)]. With d > 0 it stops at the first round boundary
// after d has elapsed, so the requests attempted are always whole
// rounds of roundSize, and not before the window of rss (if any) is
// sent; with d == 0 it sends reqs once. It stops rss once the window's
// last request is sent. The responses kept for the full check go to
// keep; without inline every response is kept.
func closedLoop(h http.Handler, reqs []request, roundSize, n int, d time.Duration, inline inlineCheck, keep *spool, rss *rssSampler) loopResult {
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		out     loopResult
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (d == 0 && next == len(reqs)) {
			return 0, false
		}
		if d > 0 && next > 0 && next%roundSize == 0 && time.Since(start) >= d && (rss == nil || next >= rss.window) {
			stopped = true
			return 0, false
		}
		next++
		if rss != nil && next == rss.window {
			rss.close()
		}
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recorder{}
			var own loopResult
			for {
				k, ok := take()
				if !ok {
					break
				}
				r := &reqs[k%len(reqs)]
				own.lats = append(own.lats, call(h, rec, r.body))
				kept, err := true, error(nil)
				if inline != nil {
					kept, err = inline(r, rec.code, rec.body.Bytes())
				}
				if err != nil {
					own.errs = append(own.errs, err)
				}
				if kept {
					keep.add(r, rec.code, rec.body.Bytes())
				}
			}
			mu.Lock()
			out.lats = append(out.lats, own.lats...)
			out.errs = append(out.errs, own.errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.attempted = next
	out.elapsed = time.Since(start)
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler samples the process's resident set every rssEvery while
// the first window requests of a closed loop are sent. Unlike the
// kernel's high-water mark it leaves out the memory set-up touched
// before it started. A fixed amount of work, not a fixed time, bounds
// it: whatever the daemon holds per request served (cached schedules,
// while the cache fills) then reads the same at any speed.
type rssSampler struct {
	window  int
	stop    chan struct{}
	once    sync.Once
	done    chan struct{}
	samples []float64 // MiB; written by the sampler, read after done
}

const rssEvery = 10 * time.Millisecond

func startRSSSampler(window int) *rssSampler {
	s := &rssSampler{window: window, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.samples = append(s.samples, float64(currentRSS())/(1<<20))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) close() { s.once.Do(func() { close(s.stop) }) }

// peakMB stops the sampler and returns the 90th percentile of its
// samples, in MiB: the level the resident set reaches at its peaks. The
// top tenth are brief spikes of garbage-collector timing; on hot-hits
// their 99th percentile moves by a sixth from run to run.
func (s *rssSampler) peakMB() float64 {
	s.close()
	<-s.done
	sort.Float64s(s.samples)
	return stats.Percentile(s.samples, 90)
}

// currentRSS reads the resident set size from /proc/self/statm.
func currentRSS() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// blockCounters are the /stats counters the engine metrics use.
type blockCounters struct {
	BlockHits      int64 `json:"block_hits"`
	BlockMisses    int64 `json:"block_misses"`
	BlockCoalesced int64 `json:"block_coalesced"`
	BlockDisk      int64 `json:"block_disk"`
	BlockPeer      int64 `json:"block_peer"`
}

// lookups is every block lookup the engine resolved.
func (c blockCounters) lookups() int64 {
	return c.BlockHits + c.BlockMisses + c.BlockCoalesced + c.BlockDisk + c.BlockPeer
}

func (c blockCounters) minus(o blockCounters) blockCounters {
	return blockCounters{
		BlockHits:      c.BlockHits - o.BlockHits,
		BlockMisses:    c.BlockMisses - o.BlockMisses,
		BlockCoalesced: c.BlockCoalesced - o.BlockCoalesced,
		BlockDisk:      c.BlockDisk - o.BlockDisk,
		BlockPeer:      c.BlockPeer - o.BlockPeer,
	}
}

// readCounters reads the block counters from GET /stats.
func readCounters(h http.Handler) (blockCounters, error) {
	rec := &recorder{hdr: make(http.Header)}
	h.ServeHTTP(rec, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/stats"}, Header: http.Header{}, RequestURI: "/stats"})
	var c blockCounters
	if rec.code != http.StatusOK {
		return c, fmt.Errorf("GET /stats: status %d", rec.code)
	}
	if err := json.Unmarshal(rec.body.Bytes(), &c); err != nil {
		return c, fmt.Errorf("GET /stats: %w", err)
	}
	return c, nil
}
