package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs: the bound
// and direction of each end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readRecords loads a file written by -out: one JSON record per line.
// The result maps workload → metric → the values of all its runs.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict compares the runs of one metric on one workload. worse is the
// share of A's median by which B's median is worse (negative: better);
// spread is the wider of the two sides' interquartile ranges as a share
// of their own median.
type verdict struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	nA, nB         int
	worse, spread  float64
	word           string
}

// anyIncrease is the bound of failed_frac: not a share of the parent's
// median (which is 0) but any rise at all, of the mean, so that one
// failing run in ten shows.
const anyIncrease = -1

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func judge(a, b []float64, lowerIsBetter bool, bound float64) verdict {
	v := verdict{medA: median(a), medB: median(b), nA: len(a), nB: len(b)}
	v.q1A, v.q3A = quartiles(a)
	v.q1B, v.q3B = quartiles(b)
	if v.medA != 0 {
		v.worse = (v.medB - v.medA) / abs(v.medA)
		if !lowerIsBetter {
			v.worse = -v.worse
		}
		v.spread = (v.q3A - v.q1A) / abs(v.medA)
	}
	if v.medB != 0 {
		if s := (v.q3B - v.q1B) / abs(v.medB); s > v.spread {
			v.spread = s
		}
	}
	switch {
	case bound == 0:
		v.word = "" // a per-layer metric: reported, never judged
	case bound == anyIncrease:
		v.word = "unchanged"
		if mean(b) > mean(a) {
			v.word = "REGRESSED"
		}
	case v.worse > bound:
		v.word = "REGRESSED"
	case v.spread > bound:
		v.word = "unresolved" // the runs disagree among themselves by more than the bound
	case v.worse < -bound:
		v.word = "improved"
	default:
		v.word = "unchanged"
	}
	return v
}

// compareFiles prints one row per workload per metric for two -out
// files (A the parent, B the change) and fails on a regression.
func compareFiles(boundsPath, pathA, pathB string) error {
	bf, err := readBenchmarkFile(boundsPath)
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	type judged struct {
		name, unit string
		lower      bool
		bound      float64
	}
	var defs []judged
	for _, m := range bf.EndToEnd {
		defs = append(defs, judged{m.Name, m.Unit, m.Better == "lower", m.Bound})
	}
	for _, m := range bf.PerLayer {
		bound := 0.0
		if m.Name == failedFrac.name {
			bound = anyIncrease
		}
		defs = append(defs, judged{m.Name, m.Unit, m.Better == "lower", bound})
	}
	workloads := sortedKeys(a)
	sort.SliceStable(workloads, func(i, j int) bool { return workloadIndex(workloads[i]) < workloadIndex(workloads[j]) })
	regressed := 0
	fmt.Printf("%-15s %-36s %-6s %34s %34s %22s  %s\n", "workload", "metric", "unit",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "B/A (base: A median)", "verdict (bound)")
	for _, w := range workloads {
		for _, d := range defs {
			va, vb := a[w][d.name], b[w][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(va, vb, d.lower, d.bound)
			ratio := "n/a"
			if v.medA != 0 {
				ratio = fmt.Sprintf("%.4f of %.4g", v.medB/v.medA, v.medA)
			}
			word := v.word
			switch {
			case d.bound > 0:
				word = fmt.Sprintf("%s (%.0f%%, spread %.1f%%)", v.word, d.bound*100, v.spread*100)
			case d.bound == anyIncrease:
				word += " (any increase)"
			}
			fmt.Printf("%-15s %-36s %-6s %34s %34s %22s  %s\n", w, d.name, d.unit,
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", v.medA, v.q1A, v.q3A, v.nA),
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", v.medB, v.q1B, v.q3B, v.nB),
				ratio, word)
			if v.word == "REGRESSED" {
				regressed++
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric x workload pairs regressed beyond their bound", regressed)
	}
	return nil
}

func workloadIndex(name string) int {
	for i, w := range allWorkloads {
		if w.name == name {
			return i
		}
	}
	return len(allWorkloads)
}
