// Command perfbench is probedis's end-to-end and per-layer benchmark.
// It drives the project only from outside: the public library entry
// points (DisassembleELFDetail, DisassembleELFTrace) and the shipped
// disasm and disasmd binaries. See README.md in this directory for the
// workloads, the metrics and how to read them.
//
// Run it through run.sh, which builds it and the binaries it drives:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --steady <runs>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The process exits 1 when any
// correctness check fails and 2 on a usage or set-up error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run    func(*env) error
	traced func(*env) error
}{
	"real-batch":   {runRealBatch, traceRealBatch},
	"truth-corpus": {runTruthCorpus, traceTruthCorpus},
	"serve-mix":    {runServeMix, traceServeMix},
}

// env is one benchmark run: its configuration, scratch space and the
// result it accumulates.
type env struct {
	workload string
	seed     int64
	seconds  float64
	root     string // checkout root: testdata/ and BENCHMARK.json
	bin      string // directory holding the built disasm and disasmd
	tmp      string // fresh scratch directory, removed at exit
	nproc    int
	res      result
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: real-batch, truth-corpus or serve-mix")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	root := flag.String("root", ".", "repository checkout root")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built disasm and disasmd")
	steady := flag.Int("steady", 0, "run the workload this many times with seeds seed, seed+1, ... and report each end-to-end metric's spread against its bound")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload real-batch|truth-corpus|serve-mix --seed n --seconds s [--trace 0|1] [--steady runs]")
		return 2
	}
	if *steady > 0 {
		return steadiness(*workload, *seed, *seconds, *root, *bin, *steady)
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	e := &env{workload: *workload, seed: *seed, seconds: *seconds, root: *root, bin: *bin, nproc: nproc}
	e.res.Correct = true
	printFingerprint(nproc)

	if err := os.MkdirAll(filepath.Join(*root, ".bench_build"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	e.tmp = tmp

	fn := w.run
	if *trace == 1 {
		fn = w.traced
	}
	if err := fn(e); err != nil {
		// A set-up failure (missing or altered pinned input, unbuildable
		// corpus, server that never came up) prints no result.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := checkManifest(*root, *trace, e.res.Metrics); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	out, err := json.Marshal(e.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(out))
	if !e.res.Correct || e.res.Failed > 0 {
		return 1
	}
	return 0
}

// checkManifest holds a run's metrics against BENCHMARK.json: an
// untraced run must report exactly the end-to-end metrics, each in its
// unit and above 0, and a traced run exactly the per-layer metrics.
func checkManifest(root string, trace int, got metrics) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		if trace == 0 {
			want[m.Name] = m.Unit
		}
	}
	for _, m := range spec.PerLayer {
		if trace == 1 {
			want[m.Name] = m.Unit
		}
	}
	seen := map[string]bool{}
	for _, m := range got {
		unit, ok := want[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is not in BENCHMARK.json for --trace %d", m.Name, trace)
		case seen[m.Name]:
			return fmt.Errorf("metric %s reported twice", m.Name)
		case m.Unit != unit:
			return fmt.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (trace == 0 && m.Value == 0):
			return fmt.Errorf("metric %s = %v", m.Name, m.Value)
		}
		seen[m.Name] = true
	}
	for name := range want {
		if !seen[name] {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", name)
		}
	}
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Name  string
	Value float64
	Unit  string
}

// metrics keeps insertion order, so the JSON and the printed table list
// the metrics in the order the benchmark defines them.
type metrics []metric

func (m metrics) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range m {
		if i > 0 {
			b.WriteByte(',')
		}
		name, _ := json.Marshal(x.Name)
		unit, _ := json.Marshal(x.Unit)
		fmt.Fprintf(&b, `%s:{"value":%s,"unit":%s}`, name, strconv.FormatFloat(x.Value, 'g', -1, 64), unit)
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

func (m *metrics) UnmarshalJSON(data []byte) error {
	var raw map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	for name, v := range raw {
		*m = append(*m, metric{name, v.Value, v.Unit})
	}
	return nil
}

// set records a metric and prints it as one table row.
func (e *env) set(name string, v float64, unit string) {
	e.res.Metrics = append(e.res.Metrics, metric{name, v, unit})
	fmt.Printf("  %-44s %14.6g %s\n", name, v, unit)
}

// op counts one attempted operation, and a failure with its reason.
func (e *env) op(err error) {
	e.res.Attempted++
	if err != nil {
		e.res.Failed++
		e.res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}

// fail records a correctness failure that is not an operation of its own.
func (e *env) fail(err error) {
	e.res.Correct = false
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
}

// printFingerprint identifies the machine a run's numbers belong to.
func printFingerprint(nproc int) {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	fmt.Printf("fingerprint: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", cpu, nproc, runtime.GOMAXPROCS(0), runtime.Version())
}
