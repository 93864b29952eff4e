// Command perfbench is the repository's benchmark: host-side cost of
// the serving stack and of the extension sandbox, end to end and layer
// by layer. Simulated cycles are what the repository reproduces, so
// they appear only in the output checks, never as metrics.
//
// Run it through run.sh, which builds it and the daemon it drives:
//
//	bash perfbench/run.sh --workload serve-shared --seed 1 --seconds 20 --trace 0
//
// Workloads: serve-shared, serve-clone (palladium-serve as a child
// process, driven over HTTP) and extensions (in-process sandbox
// invocations). --trace 1 runs the layer ledger instead: spans around
// calls into each layer's public functions, per-layer metrics and exact
// counts (see README.md). The last line of standard output is the
// result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
)

// config is one run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   int
	daemonBin string
	workdir   string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checkLog collects output-check failures; a run with any reports
// correct=false.
type checkLog struct {
	mu       sync.Mutex
	failures int
}

func (c *checkLog) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	logf("check failed: "+format, args...)
}

func (c *checkLog) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures == 0
}

// logf writes a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "serve-shared, serve-clone or extensions")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced layer ledger instead of the end-to-end run")
	flag.StringVar(&cfg.daemonBin, "daemon", "", "palladium-serve binary (run.sh builds it)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the template image, address files and span dumps")
	flag.Parse()

	known := map[string]bool{"serve-shared": true, "serve-clone": true, "extensions": true}
	switch {
	case !known[cfg.workload]:
		logf("unknown workload %q", cfg.workload)
		os.Exit(2)
	case cfg.seconds < 1:
		logf("--seconds must be at least 1")
		os.Exit(2)
	case cfg.daemonBin == "":
		logf("--daemon is required")
		os.Exit(2)
	}

	var (
		res result
		err error
	)
	switch {
	case *trace == 1:
		res, err = runLedger(cfg)
	case cfg.workload == "extensions":
		res, err = runExtensions(cfg)
	default:
		mode := serveShared
		if cfg.workload == serveClone.name {
			mode = serveClone
		}
		res, err = runServe(cfg, mode)
	}
	if err != nil {
		logf("%s: %v", cfg.workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
