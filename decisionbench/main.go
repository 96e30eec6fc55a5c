// Command decisionbench is the repository's end-to-end benchmark. It
// judges Athena the way the paper does — by decisions: how many resolve
// by their deadline, how fast, at what bandwidth, and whether the outcome
// matched the simulated world's ground truth at the moment of decision.
//
// Usage (from the repository root, see run.sh and README.md):
//
//	decisionbench --workload sim-paper|sim-fleet|tcp-fleet --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 a separate traced run
// (CPU profile plus spans) reports the per-layer set. A violated
// correctness check prints its reason to standard error and the result
// line with "correct": false, and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts are the command-line inputs every workload receives.
type runOpts struct {
	seed   int64
	budget time.Duration
	traced bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOpts) (*report, error){
	"sim-paper": runSimPaper,
	"sim-fleet": runSimFleet,
	"tcp-fleet": runTCPFleet,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "decisionbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("decisionbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sim-paper, sim-fleet or tcp-fleet")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	rep, err := runner(runOpts{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
	})
	if err != nil {
		return err
	}
	out := result{Correct: len(rep.violations) == 0, Attempted: rep.attempted, Failed: rep.failed}
	if *trace == 1 {
		out.Metrics = rep.layerMetrics()
	} else {
		out.Metrics = rep.endToEnd()
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	for _, v := range rep.violations {
		fmt.Fprintf(os.Stderr, "decisionbench: %s: correctness check failed: %s\n", *name, v)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: %d correctness check(s) failed", *name, len(rep.violations))
	}
	return nil
}
