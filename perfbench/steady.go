package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json the steadiness command reads.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain repeats every workload for BENCHMARK.json's run_seconds,
// alternating their order from one repetition to the next, each run a
// fresh process with its own seed,
// and prints each end-to-end metric's median and quartiles next to its
// bound. It fails when a run fails, a check fails, the share of failed
// operations differs between runs of a workload, or a spread exceeds
// its bound.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "repetitions of every workload")
	seed := fs.Int64("seed", 1, "seed of the first repetition; repetition i uses seed+i")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
		return 1
	}
	var bench benchFile
	if err := json.Unmarshal(data, &bench); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: BENCHMARK.json: %v\n", err)
		return 1
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
		return 1
	}

	values := make(map[string]map[string][]float64) // workload → metric → runs
	failShare := make(map[string]map[string]bool)   // workload → distinct failed/attempted
	ok := true
	for i := 0; i < *runs; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		for _, w := range order {
			s := *seed + int64(i)
			rep, err := runChild(exe, w, s, bench.RunSeconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: %v\n", w, s, err)
				ok = false
				continue
			}
			if !rep.Correct {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: a check failed\n", w, s)
				ok = false
			}
			if values[w] == nil {
				values[w] = make(map[string][]float64)
				failShare[w] = make(map[string]bool)
			}
			failShare[w][share(rep.Failed, rep.Attempted)] = true
			var line []string
			for _, m := range bench.EndToEnd {
				v := rep.Metrics[m.Name].Value
				values[w][m.Name] = append(values[w][m.Name], v)
				line = append(line, fmt.Sprintf("%s=%.6g", m.Name, v))
			}
			fmt.Printf("run %2d %-13s seed %-4d attempted %-6d failed %-3d %s\n", i, w, s, rep.Attempted, rep.Failed, strings.Join(line, " "))
		}
	}

	fmt.Printf("\n%-13s %-15s %14s %14s %14s %8s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, w := range names {
		for _, m := range bench.EndToEnd {
			xs := values[w][m.Name]
			if len(xs) < 2 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "FAIL: spread above bound"
				ok = false
			case spread > m.Bound/3:
				verdict = "wide: above a third of the bound"
			}
			fmt.Printf("%-13s %-15s %14.6g %14.6g %14.6g %8.4f %6.3f  %s\n", w, m.Name, q1, med, q3, spread, m.Bound, verdict)
		}
		if len(failShare[w]) > 1 {
			fmt.Printf("%-13s failed/attempted differs between runs: %v\n", w, keys(failShare[w]))
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one benchmark run in a fresh process and parses its
// result line.
func runChild(exe, workload string, seed int64, seconds int) (*report, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &rep, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		n, m := 4, len(s)+1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return q(1), q(2), q(3)
}

// share renders failed/attempted as a reduced fraction, so equal shares
// compare equal whatever the run length.
func share(failed, attempted int) string {
	a, b := failed, attempted
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return "0"
	}
	return fmt.Sprintf("%d/%d", failed/a, attempted/a)
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
