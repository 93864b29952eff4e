package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

const (
	// startsPerSegment is how many times an untraced run starts the
	// daemon before each segment, to time its set-up; setup_s is the
	// median over all of a run's starts, which are spread over the run.
	startsPerSegment = 3
	// warmup lets caches fill and lazy set-up finish before timing
	// starts, where a run warms by time (the extension passes and the
	// ledger's parts).
	warmup = time.Second
	// segmentWarmPerConn is each caller's warm-up requests on a new
	// segment's daemon, before its timed requests.
	segmentWarmPerConn = 500
	// sigtermGrace separates a set-up start's first 200 from its
	// SIGTERM: palladium-serve writes its address file and serves before
	// it installs its SIGTERM handler, so an immediate SIGTERM can kill
	// it without the drain and the exit-status accounting check.
	sigtermGrace = 50 * time.Millisecond
)

// serveMode is one of the two serving workloads.
type serveMode struct {
	name  string
	clone bool
	// segmentPerConn is each caller's timed requests in one segment of
	// an untimed run: a whole number of mix rounds.
	segmentPerConn int
}

var (
	serveShared = serveMode{name: "serve-shared", segmentPerConn: 50_000}
	serveClone  = serveMode{name: "serve-clone", clone: true, segmentPerConn: 5_000}
)

// serveSession is the daemon runs of one workload, with the references
// their outputs are checked against.
type serveSession struct {
	mode   serveMode
	cfg    config
	refs   []reference
	client *http.Client
	extra  []string // the workload's daemon flags
	img    string   // serve-clone's template image, removed by close
	d      *daemon
	setups []float64 // seconds from exec to first 200, one per start
	checks *checkLog
}

// openServe boots the references and writes the clone template; start
// brings up a daemon.
func openServe(cfg config, mode serveMode, checks *checkLog) (*serveSession, error) {
	refs, err := bootReferences(fileSize)
	if err != nil {
		return nil, err
	}
	// The control client reaches /metrics, the heap endpoint and the
	// start-up probe; requests under load go through httpConn.
	ss := &serveSession{mode: mode, cfg: cfg, refs: refs, client: &http.Client{Timeout: time.Minute}, checks: checks}
	if mode.clone {
		ss.img = filepath.Join(cfg.workdir, fmt.Sprintf("template-%d.pal", os.Getpid()))
		if err := saveTemplate(cfg.daemonBin, ss.img); err != nil {
			return nil, err
		}
		ss.extra = []string{"-clone", "-warm-clones", "2", "-restore", ss.img}
	}
	return ss, nil
}

// close removes the session's files.
func (ss *serveSession) close() {
	if ss.img != "" {
		os.Remove(ss.img)
	}
}

// start starts the daemon `starts` times, timing each set-up, and keeps
// the last one running as ss.d.
func (ss *serveSession) start(starts int) error {
	for i := 0; i < starts; i++ {
		d, setup, err := startDaemon(ss.cfg.daemonBin, ss.cfg.workdir, ss.extra, ss.client)
		if err != nil {
			return err
		}
		ss.setups = append(ss.setups, setup.Seconds())
		if i < starts-1 {
			time.Sleep(sigtermGrace)
			if _, err := ss.closeDaemon(d); err != nil {
				d.kill()
				return err
			}
		} else {
			ss.d = d
		}
	}
	return nil
}

// check is the per-response output check: on a fresh clone the
// simulated time must equal the reference first request exactly at the
// header's precision; on a long-lived machine it must be within
// sharedTolerance of it.
func (ss *serveSession) check(m int, header string, simUs float64) string {
	ref := ss.refs[m]
	if ss.mode.clone {
		if header != ref.simHeader() {
			return fmt.Sprintf("%s on a fresh clone: X-Sim-Micros %s, want %s", modelNames[m], header, ref.simHeader())
		}
		return ""
	}
	if !ref.withinShared(simUs) {
		return fmt.Sprintf("%s: X-Sim-Micros %s not within %.1f%% of %.3f", modelNames[m], header, 100*sharedTolerance, ref.simUs)
	}
	return ""
}

// drive runs the closed loop against the session's daemon (perConn
// requests per caller, or for dur when perConn is 0) and records its
// output-check failures.
func (ss *serveSession) drive(stream uint64, perConn int, dur time.Duration) (loadResult, error) {
	res, err := drive(ss.d, ss.cfg.seed, stream, perConn, dur, ss.check)
	if err != nil {
		return res, err
	}
	for _, b := range res.bad {
		ss.checks.fail("%s", b)
	}
	if res.badCount > len(res.bad) {
		ss.checks.fail("%d more responses failed their checks", res.badCount-len(res.bad))
	}
	// Simulated-time order of the models, on the medians this drive saw.
	per := make([][]float64, len(modelNames))
	for _, s := range res.samples {
		per[s.model] = append(per[s.model], s.simUs)
	}
	med := make([]float64, len(modelNames))
	for i := range per {
		if len(per[i]) == 0 {
			return res, fmt.Errorf("no %s request was answered", modelNames[i])
		}
		med[i] = median(per[i])
	}
	if err := checkPaperOrder(med); err != nil {
		ss.checks.fail("%v", err)
	}
	return res, nil
}

// closeDaemon checks /metrics completed against this client's count of
// 200s, then stops the daemon and returns its total CPU.
func (ss *serveSession) closeDaemon(d *daemon) (time.Duration, error) {
	m, err := d.metrics(ss.client)
	if err != nil {
		return 0, err
	}
	if got := int(m["palladium_serve_completed_total"]); got != d.served {
		ss.checks.fail("/metrics completed=%d, client saw %d answered requests", got, d.served)
	}
	ss.client.CloseIdleConnections()
	return d.stop()
}

// segment is what one daemon's timed requests showed.
type segment struct {
	res          loadResult
	cpu          time.Duration // the daemon's CPU over the timed requests
	allocB, live float64       // heap bytes allocated over them; live heap after them
}

// runSegment starts a daemon, warms it, sends it the segment's fixed
// number of timed requests, reads its heap after a forced collection and
// stops it.
func (ss *serveSession) runSegment(n int) (segment, error) {
	var sg segment
	if err := ss.start(startsPerSegment); err != nil {
		return sg, err
	}
	d := ss.d
	defer d.kill() // on an error path; after the SIGTERM stop it does nothing
	// Streams 0, 2, 4, ... warm up; 1, 3, 5, ... are timed.
	if _, err := ss.drive(uint64(2*n), segmentWarmPerConn, 0); err != nil {
		return sg, err
	}
	h0, err := d.heapStats(ss.client, false)
	if err != nil {
		return sg, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return sg, err
	}
	if sg.res, err = ss.drive(uint64(2*n+1), ss.mode.segmentPerConn, 0); err != nil {
		return sg, err
	}
	cpu1, err := d.cpuTime()
	if err != nil {
		return sg, err
	}
	h1, err := d.heapStats(ss.client, false)
	if err != nil {
		return sg, err
	}
	live, err := d.heapStats(ss.client, true)
	if err != nil {
		return sg, err
	}
	total, err := ss.closeDaemon(d)
	if err != nil {
		return sg, err
	}
	if total < cpu1-cpu0 {
		ss.checks.fail("daemon rusage CPU %v below the %v measured during the run", total, cpu1-cpu0)
	}
	sg.cpu = cpu1 - cpu0
	sg.allocB = h1["TotalAlloc"] - h0["TotalAlloc"]
	sg.live = live["HeapAlloc"]
	return sg, nil
}

// runServe is an untraced run of serve-shared or serve-clone. It runs
// segments, each on a new daemon with the same fixed number of requests,
// until their timed requests have taken cfg.seconds. The live heap is
// read after each segment's requests, so heap_mb does not grow with the
// request rate or the run's length. Rate, CPU and live heap are medians
// over the segments, which are spread over the host's speed phases.
func runServe(cfg config, mode serveMode) (result, error) {
	checks := &checkLog{}
	ss, err := openServe(cfg, mode, checks)
	if err != nil {
		return result{}, err
	}
	defer ss.close()
	var (
		attempted, failed int
		elapsed           time.Duration
		allocB            float64
		rtt, live         []float64
		rate, cpuPerOp    []float64 // per segment
	)
	for n := 0; n == 0 || elapsed < time.Duration(cfg.seconds)*time.Second; n++ {
		sg, err := ss.runSegment(n)
		if err != nil {
			return result{}, err
		}
		attempted += sg.res.attempted
		failed += sg.res.failed
		elapsed += sg.res.elapsed
		ok := float64(sg.res.attempted - sg.res.failed)
		rate = append(rate, ok/sg.res.elapsed.Seconds())
		cpuPerOp = append(cpuPerOp, float64(sg.cpu.Microseconds())/ok)
		allocB += sg.allocB
		live = append(live, sg.live)
		for _, s := range sg.res.samples {
			rtt = append(rtt, s.rttUs)
		}
	}

	ok := attempted - failed
	lat := summarize(rtt, 0.99)
	secs := elapsed.Seconds()
	logf("%s: %d requests answered in %d segments, %.2fs; p99 %.1fus over %d samples (tail is median: %v)",
		mode.name, ok, len(live), secs, lat.tail, lat.n, lat.tailIsMedian)
	logf("%s: requests/s per segment %s", mode.name, spreadOf(rate))
	return result{
		Correct:   checks.ok(),
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"ops_per_s":       {median(rate), "1/s"},
			"p50_us":          {lat.p50, "us"},
			"cpu_us_per_op":   {median(cpuPerOp), "us"},
			"alloc_kb_per_op": {allocB / 1024 / float64(ok), "KB"},
			"heap_mb":         {median(live) / (1 << 20), "MB"},
			"setup_s":         {median(ss.setups), "s"},
		},
	}, nil
}
