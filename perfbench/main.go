// Perfbench is gridstrat's end-to-end benchmark. It launches the
// gridstratd and gridstratrouter binaries built from the same checkout,
// drives one workload over loopback with a seeded request sequence,
// checks every answer, and prints the metrics as one JSON line.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload plan-options --seed 1 --seconds 25 --trace 0
//
// Workloads: plan-options, serve-cached, ingest-fresh (README.md says
// why each exists). --trace 0 reports the end-to-end metrics of a live
// run; --trace 1 replays a sample of the workload's sequence in-process
// with spans around each layer's public calls and reports per-layer
// metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*env) (*outcome, error){
	"plan-options": runPlanOptions,
	"serve-cached": runServeCached,
	"ingest-fresh": runIngestFresh,
}

// opClass names each workload's latency class, for the report.
var opClass = map[string]string{
	"plan-options": "plan",
	"serve-cached": "read",
	"ingest-fresh": "fresh",
}

func main() {
	var (
		workload = flag.String("workload", "", "plan-options, serve-cached or ingest-fresh")
		seed     = flag.Uint64("seed", 1, "seed of the request sequence")
		seconds  = flag.Int("seconds", 25, "length of the measured window")
		traced   = flag.Int("trace", 0, "1 replays a sample in-process and reports per-layer metrics")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding gridstratd and gridstratrouter")
		work     = flag.String("work", ".bench_build/work", "scratch directory for WAL files and span dumps")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fail(err)
	}
	// A signal stops every launched process before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()

	e := &env{bin: *bin, work: *work, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(*workload, e)
	} else {
		var o *outcome
		if o, err = run(e); err == nil {
			res = report(*workload, o)
		}
	}
	stopAll()
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	stopAll()
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func workloadNames() []string { return []string{"plan-options", "serve-cached", "ingest-fresh"} }

// report reduces an outcome to the end-to-end metrics, prints them by
// name and unit, and returns the result line.
func report(workload string, o *outcome) result {
	ops := o.completed()
	res := result{
		Correct:   o.tally.failed() == 0 && len(o.guards) == 0 && ops > 0,
		Attempted: o.tally.attempted,
		Failed:    o.tally.failed(),
		Metrics: map[string]metric{
			"setup_s":              {median(o.setup), "s"},
			"throughput_rps":       {float64(ops) / o.elapsed.Seconds(), "ops/s"},
			"p50_ms":               {quantile(o.lat, 0.50), "ms"},
			"p95_ms":               {quantile(o.lat, 0.95), "ms"},
			"server_cpu_us_per_op": {float64(o.cpu) / float64(time.Microsecond) / float64(max(ops, 1)), "us"},
			"heap_live_mb":         {o.heapMiB, "MiB"},
		},
	}
	if w := o.windowed; w != nil {
		for name, v := range map[string]float64{"p50_ms": w.p50, "p95_ms": w.p95, "throughput_rps": w.rps, "server_cpu_us_per_op": w.cpuPerOp} {
			// Zero (not sliced) or NaN (too few operations for one
			// slice) leaves the whole-window figure.
			if v > 0 {
				res.Metrics[name] = metric{v, res.Metrics[name].Unit}
			}
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	class := opClass[workload]
	fmt.Printf("workload %s: %d ops attempted, %d failed (transport %d, status %d, wrong %d), fail_ratio %.4g, %d latency samples\n",
		workload, o.tally.attempted, o.tally.failed(), o.tally.transport, o.tally.status, o.tally.wrong,
		float64(o.tally.failed())/float64(max(o.tally.attempted, 1)), len(o.lat))
	for _, name := range []string{"setup_s", "throughput_rps", "p50_ms", "p95_ms", "server_cpu_us_per_op", "heap_live_mb"} {
		m := res.Metrics[name]
		label := name
		if strings.HasPrefix(name, "p5") || strings.HasPrefix(name, "p9") {
			label = class + "_" + name
		}
		fmt.Printf("  %-24s %14.4f %s\n", label, m.Value, m.Unit)
	}
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	if o.tally.firstErr != "" {
		fmt.Println("  first failure: " + o.tally.firstErr)
	}
	for _, g := range o.guards {
		fmt.Println("  guard failed: " + g)
	}
	return res
}
