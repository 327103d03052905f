package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"bsched/internal/interp"
	"bsched/internal/ir"
	"bsched/internal/regalloc"
	"bsched/internal/server"
	"bsched/internal/sim"
)

// checker verifies served schedules against independent references and
// checks that each workload stresses what it claims. It never compares
// against a stored copy of earlier output. One checker follows one
// server's lifetime.
type checker struct {
	w *workloadSpec
	// firstHot is each hot-set variant's first, compiled response body.
	firstHot map[[2]int][]byte
	// first is the first checked schedule served for each base
	// program; the code-quality figures simulate these.
	first map[int]*ir.Program
}

func newChecker(w *workloadSpec) *checker {
	return &checker{
		w:        w,
		firstHot: make(map[[2]int][]byte),
		first:    make(map[int]*ir.Program),
	}
}

// errFailed marks a request the daemon did not serve (non-200): it
// counts as failed, not as incorrect.
var errFailed = errors.New("request failed")

// checkFailure is a served response that failed a check: the run is
// incorrect.
type checkFailure struct{ error }

func (f checkFailure) Unwrap() error { return f.error }

// check verifies one kept response in full. fill marks set-up traffic.
func (c *checker) check(res result, fill bool) error {
	if res.code != http.StatusOK {
		return fmt.Errorf("%w: status %d: %.200s", errFailed, res.code, res.body)
	}
	if err := c.verify(res, fill); err != nil {
		return checkFailure{err}
	}
	return nil
}

func (c *checker) verify(res result, fill bool) error {
	name := c.w.bases[res.req.base].Name
	var resp server.CompileResponse
	if err := json.Unmarshal(res.body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	switch {
	case c.w.name == wlHot && fill:
		key := [2]int{res.req.base, res.req.variant}
		if _, ok := c.firstHot[key]; !ok {
			c.firstHot[key] = res.body
		}
	case c.w.name == wlHot:
		return fmt.Errorf("hot-hits: %s variant %d: timed response not checked inline", name, res.req.variant)
	case resp.Cached:
		return fmt.Errorf("%s: response for %s was cached", c.w.name, name)
	case len(resp.Degradations) > 0:
		d := resp.Degradations[0]
		return fmt.Errorf("%s: %s degraded: %s → %s (%s)", c.w.name, name, d.From, d.To, d.Reason)
	}
	var reqBody server.CompileRequest
	if err := json.Unmarshal(res.req.body, &reqBody); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	src, err := ir.Parse(reqBody.Program)
	if err != nil {
		return fmt.Errorf("parse request: %w", err)
	}
	out, err := ir.Parse(resp.Program)
	if err != nil {
		return fmt.Errorf("parse served program: %w", err)
	}
	if err := verifyProgram(src, out, &resp); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if _, ok := c.first[res.req.base]; !ok {
		c.first[res.req.base] = out
	}
	return nil
}

// inline returns the check a timed phase runs as each response arrives.
// On hot-hits every response must be a hit, byte-identical up to the
// stamps to the response set-up compiled for it; nothing is kept. On
// the other workloads a request's first response is kept for the full
// check, and a later response to the same (resent) request must be a
// miss; it is kept too unless it is identical to the first up to the
// stamps. Non-200 responses are kept, to be counted as failed.
func (c *checker) inline() inlineCheck {
	if c.w.name == wlHot {
		return func(r *request, code int, body []byte) (bool, error) {
			if code != http.StatusOK {
				return true, nil
			}
			first, ok := c.firstHot[[2]int{r.base, r.variant}]
			if !ok {
				return false, checkFailure{fmt.Errorf("hot-hits: no set-up response for %s variant %d", c.w.bases[r.base].Name, r.variant)}
			}
			if err := sameApartFromStamps(first, body, true); err != nil {
				return false, checkFailure{fmt.Errorf("hot-hits: %s variant %d: %w", c.w.bases[r.base].Name, r.variant, err)}
			}
			return false, nil
		}
	}
	var mu sync.Mutex
	seen := make(map[*request][sha256.Size]byte)
	return func(r *request, code int, body []byte) (bool, error) {
		if code != http.StatusOK {
			return true, nil
		}
		i := bytes.LastIndex(body, []byte(stampsAt))
		if i < 0 {
			return false, checkFailure{errors.New("response carries no cached stamp")}
		}
		if !bytes.HasPrefix(body[i:], []byte(stampsAt+"false")) {
			return false, checkFailure{fmt.Errorf("%s: resent request for %s was a cache hit", c.w.name, c.w.bases[r.base].Name)}
		}
		sum := sha256.Sum256(body[:i])
		mu.Lock()
		first, ok := seen[r]
		if !ok {
			seen[r] = sum
		}
		mu.Unlock()
		return !ok || first != sum, nil
	}
}

// stampsAt is where the per-request stamps start in an encoded
// response: cached, coalesced and service_ms are its last fields.
const stampsAt = `,"cached":`

// sameApartFromStamps checks that body is byte-identical to first up to
// the stamps, and that it is stamped with the given cache disposition.
func sameApartFromStamps(first, body []byte, cached bool) error {
	i, j := bytes.LastIndex(first, []byte(stampsAt)), bytes.LastIndex(body, []byte(stampsAt))
	if i < 0 || j < 0 {
		return errors.New("response carries no cached stamp")
	}
	if !bytes.Equal(first[:i], body[:j]) {
		return errors.New("response differs from the compiled response")
	}
	if !bytes.HasPrefix(body[j:], []byte(stampsAt+strconv.FormatBool(cached))) {
		return fmt.Errorf("response not stamped cached=%t", cached)
	}
	return nil
}

// verifyProgram checks a served program against its source: the
// blocks are complete and in program order, and each scheduled block
// passes verifyBlock.
func verifyProgram(src, out *ir.Program, resp *server.CompileResponse) error {
	sb, ob := src.Blocks(), out.Blocks()
	if len(sb) != len(ob) || len(resp.Blocks) != len(sb) {
		return fmt.Errorf("%d source blocks, %d served blocks, %d summaries", len(sb), len(ob), len(resp.Blocks))
	}
	if len(src.Funcs) != len(out.Funcs) {
		return fmt.Errorf("%d source funcs, %d served funcs", len(src.Funcs), len(out.Funcs))
	}
	for i := range src.Funcs {
		if src.Funcs[i].Name != out.Funcs[i].Name || len(src.Funcs[i].Blocks) != len(out.Funcs[i].Blocks) {
			return fmt.Errorf("func %d: served %s with %d blocks for %s with %d", i,
				out.Funcs[i].Name, len(out.Funcs[i].Blocks), src.Funcs[i].Name, len(src.Funcs[i].Blocks))
		}
	}
	for i := range sb {
		if ob[i].Label != sb[i].Label || resp.Blocks[i].Label != sb[i].Label {
			return fmt.Errorf("block %d: served %q (summary %q) in place of %q", i, ob[i].Label, resp.Blocks[i].Label, sb[i].Label)
		}
		if err := verifyBlock(sb[i], ob[i]); err != nil {
			return fmt.Errorf("block %s: %w", sb[i].Label, err)
		}
	}
	return nil
}

// verifyBlock checks one scheduled block against its source with three
// independent references: the interpreter (same memory state, spill
// slots aside), the simulator's well-formedness check, and an
// instruction census (every source instruction exactly once; anything
// extra is spill code).
func verifyBlock(src, out *ir.Block) error {
	ss, err := interp.Run(src.Instrs, nil)
	if err != nil {
		return fmt.Errorf("interpret source: %w", err)
	}
	so, err := interp.Run(out.Instrs, nil)
	if err != nil {
		return fmt.Errorf("interpret schedule: %w", err)
	}
	if !interp.MemEqual(ss, so, regalloc.StackSym) {
		return errors.New("schedule leaves a different memory state than its source")
	}
	if err := sim.Verify(out.Instrs); err != nil {
		return err
	}
	census := make(map[string]int)
	for _, in := range src.Instrs {
		census[shape(in)]++
	}
	for _, in := range out.Instrs {
		if in.IsSpill {
			continue
		}
		k := shape(in)
		if census[k] == 0 {
			return fmt.Errorf("instruction %q is neither a source instruction nor spill code", in)
		}
		census[k]--
	}
	for k, n := range census {
		if n != 0 {
			return fmt.Errorf("source instruction %q missing %d time(s) from the schedule", k, n)
		}
	}
	return nil
}

// shape renders an instruction without its registers, which register
// allocation renames: what must survive scheduling unchanged.
func shape(in *ir.Instr) string {
	return fmt.Sprintf("%v|%d|%s|%d|%t|%s|%d|%g", in.Op, in.Imm, in.Sym, in.Off, in.Base != ir.NoReg, in.Target, len(in.Srcs), in.KnownLatency)
}
