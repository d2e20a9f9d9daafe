// Command benchmark is the repository's benchmark: it builds qiranad and
// qirouter from the checkout it runs in, starts them as child processes
// on loopback, drives them over two client connections, checks every
// answer, and prints every metric by name and unit. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	compare  bool
	root     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all six, one after another)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same request sequence (the data seed is fixed at 1)")
	flag.IntVar(&o.seconds, "seconds", 12, "length of the timed window")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the in-process traced replay and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "append one JSON record per run to this file (input of -compare)")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: benchmark -compare A.jsonl B.jsonl")
	flag.StringVar(&o.root, "root", "", "checkout root (default: found from the working directory)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	root, err := findRoot(opt.root)
	if err != nil {
		return err
	}
	if opt.compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	if clients > runtime.NumCPU() {
		return fmt.Errorf("%d clients on %d CPUs: the generator would compete with itself for a core", clients, runtime.NumCPU())
	}
	if opt.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	cfg := &config{root: root, binDir: filepath.Join(root, ".bench_build", "bin"),
		seed: opt.seed, seconds: opt.seconds, trace: opt.trace != 0, setups: setupsPerRun}
	if cfg.trace {
		cfg.setups = 1 // a traced run reports no setup_s
	}
	if err := buildDaemons(cfg); err != nil {
		return err
	}
	// The generator shares two cores with the server: collect its own
	// garbage rarely so it disturbs the measurement less.
	debug.SetGCPercent(400)

	todo := allWorkloads
	if opt.workload != "" {
		w := workloadByName(opt.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", opt.workload)
		}
		todo = []*workload{w}
	}
	var outcomes []*outcome
	for _, w := range todo {
		o, err := runWorkload(cfg, w)
		if err != nil {
			return err
		}
		outcomes = append(outcomes, o)
	}
	crossCheck(outcomes)

	var lines []string
	bad := false
	for _, o := range outcomes {
		printOutcome(cfg, o)
		rec := o.record(cfg)
		if opt.out != "" {
			// The file keeps every metric the run measured, not only the
			// set its result line carries.
			full := rec
			full.Metrics = o.m.measured(append(append([]metricDef{failedFrac}, endToEnd...), perLayer...))
			if err := appendRecord(opt.out, full); err != nil {
				return err
			}
		}
		line, _ := json.Marshal(rec.line())
		lines = append(lines, string(line))
		bad = bad || !rec.Correct
	}
	// The result lines come last, one per workload, so the final line of
	// a single-workload run is its result.
	fmt.Println(strings.Join(lines, "\n"))
	if bad {
		os.Stdout.Sync()
		return errors.New("correctness gate failed")
	}
	return nil
}

// findRoot locates the checkout: the directory that holds benchmark/.
func findRoot(flagged string) (string, error) {
	for _, dir := range []string{flagged, ".", ".."} {
		if dir == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "benchmark", "go.mod")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the checkout root or from benchmark/ (or pass -root)")
}

// buildDaemons compiles qiranad and qirouter from the checkout under
// test into .bench_build/bin. It runs from benchmark/, whose go.mod
// replaces the qirana module with the checkout, so the daemons are built
// from exactly the sources beside the benchmark.
func buildDaemons(cfg *config) error {
	if err := os.MkdirAll(cfg.binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", cfg.binDir+string(filepath.Separator),
		"qirana/cmd/qiranad", "qirana/cmd/qirouter")
	cmd.Dir = filepath.Join(cfg.root, "benchmark")
	if outp, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build daemons: %w\n%s", err, outp)
	}
	return nil
}

// crossCheck asserts that sharded_cold served the same price as
// cold_adhoc for every sequence index both reached (they replay the
// identical sequence), when one invocation ran both.
func crossCheck(outcomes []*outcome) {
	var single, sharded *outcome
	for _, o := range outcomes {
		switch o.w.name {
		case "cold_adhoc":
			single = o
		case "sharded_cold":
			sharded = o
		}
	}
	if single == nil || sharded == nil {
		return
	}
	for seq, p := range sharded.prices {
		if q, ok := single.prices[seq]; ok {
			sharded.attempted++
			if p != q {
				sharded.failf("request %d: sharded price %v, single-node price %v", seq, p, q)
			}
		}
	}
	sharded.setFailedFrac()
}

// record is one run as -out stores it and -compare reads it.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultLine is the last line of a run, as the driver reads it.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *outcome) record(cfg *config) record {
	r := record{Workload: o.w.name, Seed: cfg.seed, Seconds: cfg.seconds,
		Correct: len(o.failures) == 0, Attempted: o.attempted, Failed: len(o.failures)}
	if cfg.trace {
		r.Trace = 1
	}
	r.Metrics = o.m.export(lineDefs(cfg.trace))
	return r
}

func (r record) line() resultLine {
	return resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(r)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printOutcome(cfg *config, o *outcome) {
	loop := "closed loop"
	if o.w.rate > 0 {
		loop = fmt.Sprintf("open loop at %g/s", o.w.rate)
	}
	fmt.Printf("== %s: %s, %d clients, seed %d, %ds window ==\n", o.w.name, loop, clients, cfg.seed, cfg.seconds)
	fmt.Printf("  %s\n", o.w.why)
	o.m.print("end to end (tracing off)", append(endToEnd[:len(endToEnd):len(endToEnd)], failedFrac))
	title := "per layer (server exports and client clock)"
	if cfg.trace {
		title = "per layer (server exports, client clock, traced replay)"
	}
	o.m.print(title, perLayer)
	fmt.Println("  -- latency by request class (diagnostic) --")
	for _, line := range o.classes {
		fmt.Println("  " + line)
	}
	fmt.Printf("  attempted %d, failed %d\n", o.attempted, len(o.failures))
	for i, f := range o.failures {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(o.failures)-10)
			break
		}
		fmt.Printf("  FAILED: %s\n", f)
	}
}
