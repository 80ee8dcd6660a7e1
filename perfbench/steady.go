package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(root string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// steadiness runs the workload runs times, one process per run with
// seeds seed, seed+1, ..., and prints for every end-to-end metric its
// median, quartiles and interquartile range as a share of the median,
// beside the metric's bound. It returns 1 when any run fails or any
// spread other than setup_s's exceeds its bound.
func steadiness(workload string, seed int64, seconds float64, root, bin string, runs int) int {
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	values := map[string]sample{}
	code := 0
	for i := 0; i < runs; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-root", root, "-bin", bin, "--workload", workload,
			"--seed", strconv.FormatInt(s, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || runErr != nil || !res.Correct {
			fmt.Printf("run %d (seed %d): FAILED (%v)\n", i+1, s, runErr)
			code = 1
			continue
		}
		fmt.Printf("run %d (seed %d):", i+1, s)
		sort.Slice(res.Metrics, func(a, b int) bool { return res.Metrics[a].Name < res.Metrics[b].Name })
		for _, m := range res.Metrics {
			values[m.Name] = append(values[m.Name], m.Value)
			fmt.Printf(" %s=%.6g", m.Name, m.Value)
		}
		fmt.Println()
	}

	fmt.Printf("\nsteadiness of %s over %d runs: spread = (q3-q1)/median, flagged past its bound\n", workload, runs)
	fmt.Printf("  %-18s %12s %12s %12s %8s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range spec.EndToEnd {
		v, ok := values[m.Name]
		if !ok {
			continue
		}
		q1, q2, q3 := v.quartiles()
		spread := (q3 - q1) / q2
		flag := ""
		switch {
		case spread > m.Bound && m.Name != "setup_s":
			flag, code = "OVER BOUND", 1
		case spread > m.Bound:
			flag = "over bound (setup_s: not gated on spread)"
		case spread > m.Bound/3:
			flag = "over a third of bound"
		}
		fmt.Printf("  %-18s %12.6g %12.6g %12.6g %8.4f %7.3f  %s\n", m.Name, q1, q2, q3, spread, m.Bound, flag)
	}
	return code
}
