package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/webserver"
)

// The traced run is one ledger over all three workloads: it reports
// every per-layer metric, each measured on the workload it belongs to
// (README.md lists which), whichever --workload is given. Its parts
// share the run's seconds equally:
//
//   - the two daemons, black boxes: the HTTP split from the response
//     headers, and the clone pool's cold steals and the daemon's
//     collections from /metrics and the heap endpoint;
//   - the serving path replayed in this process through its public
//     calls, fleet.Pool.TrySubmit -> ClonePool.Take ->
//     webserver.Server.ServeRequest -> ClonePool.Discard (which
//     releases the clone's frames), with spans around each call;
//   - the extensions workload with spans around each invocation.
//
// Replays and the extension part alternate traced and untraced blocks;
// the difference in time per operation is the tracing overhead. Exact
// counts are taken over fixed serial segments, so they repeat exactly
// for a seed.
const ledgerParts = 5

// traceBlocks is how many alternating untraced/traced blocks each
// in-process part runs; alternation spreads host speed swings over
// both kinds of block.
const traceBlocks = 8

// Every how many operations a traced block records spans, per
// in-process part: sized so each part keeps a few hundred thousand
// spans on this host.
const (
	sharedTraceEvery = 16
	cloneTraceEvery  = 1
	extTraceEvery    = 4
)

// Exact-count segment sizes.
const (
	frameCountRequests = 2000
	cowCountRequests   = 200
)

// restoreRuns is how many times the ledger restores the clone template;
// webserver.restore_ms is their median.
const restoreRuns = 15

// layers are the span-name prefixes a part's self time is split by.
var layers = map[string][]string{
	"serve-shared": {"bench", "fleet", "webserver"},
	"serve-clone":  {"bench", "fleet", "webserver", "mem"},
	"extensions":   {"bench", "sandbox", "core"},
}

type ledger struct {
	cfg               config
	partDur           time.Duration
	metrics           map[string]metric
	spans             map[string][]span
	checks            *checkLog
	attempted, failed int
}

func (l *ledger) set(name string, v float64, unit string) { l.metrics[name] = metric{v, unit} }

func runLedger(cfg config) (result, error) {
	l := &ledger{
		cfg:     cfg,
		partDur: time.Duration(cfg.seconds) * time.Second / ledgerParts,
		metrics: map[string]metric{},
		spans:   map[string][]span{},
		checks:  &checkLog{},
	}
	steps := []func() error{
		func() error { return l.daemonPart(serveShared) },
		func() error { return l.daemonPart(serveClone) },
		l.sharedReplay,
		l.cloneReplay,
		l.extensionsPart,
		l.serveCounts,
		l.extensionCounts,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return result{}, err
		}
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.tsv", cfg.workload, cfg.seed))
	if err := writeSpans(path, l.spans); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	logf("spans written to %s", path)
	for part, sp := range l.spans {
		lt := aggregate(sp)
		for _, layer := range layers[part] {
			l.set("self_pct."+part+"."+layer, lt.layerSelfPct(layer), "%")
		}
	}
	return result{Correct: l.checks.ok(), Attempted: l.attempted, Failed: l.failed, Metrics: l.metrics}, nil
}

// daemonPart drives one daemon with the workload's checks on and takes
// what the daemon shows from outside.
func (l *ledger) daemonPart(mode serveMode) error {
	ss, err := openServe(l.cfg, mode, l.checks)
	if err != nil {
		return err
	}
	defer ss.close()
	if err := ss.start(1); err != nil {
		return err
	}
	d := ss.d
	defer d.kill() // on an error path; after the SIGTERM stop it does nothing
	if _, err := ss.drive(0, 0, warmup/2); err != nil {
		return err
	}
	h0, err := d.heapStats(ss.client, false)
	if err != nil {
		return err
	}
	m0, err := d.metrics(ss.client)
	if err != nil {
		return err
	}
	res, err := ss.drive(1, 0, l.partDur)
	if err != nil {
		return err
	}
	m1, err := d.metrics(ss.client)
	if err != nil {
		return err
	}
	h1, err := d.heapStats(ss.client, false)
	if err != nil {
		return err
	}
	if _, err := ss.closeDaemon(d); err != nil {
		return err
	}
	l.attempted += res.attempted
	l.failed += res.failed
	kops := float64(res.attempted-res.failed) / 1000
	l.set("runtime.gc_per_kop."+mode.name, (h1["NumGC"]-h0["NumGC"])/kops, "count/kop")
	var httpUs, wallUs, rttUs []float64
	for _, s := range res.samples {
		httpUs = append(httpUs, s.rttUs-s.wallUs)
		wallUs = append(wallUs, s.wallUs)
		rttUs = append(rttUs, s.rttUs)
	}
	l.set("tail.p99_us."+mode.name, summarize(rttUs, 0.99).tail, "us")
	if mode.clone {
		steals := m1["palladium_clone_cold_steals_total"] - m0["palladium_clone_cold_steals_total"]
		l.set("fleet.cold_steals_per_kop", steals/kops, "count/kop")
		l.set("serve.admit_to_done_us", median(wallUs), "us")
	} else {
		l.set("serve.http_us", median(httpUs), "us")
	}
	return nil
}

// replayOp is one replayed request: its model, its operation id and
// the recorder and root span its spans go under.
type replayOp struct {
	model int
	op    int64
	rec   *recorder
	root  int
}

// replay runs `connections` closed-loop submitters against pool for
// dur, each submitting its next request once the previous one is done.
// handle runs on the fleet worker. It returns the requests completed.
func replay(pool *fleet.Pool[*webserver.Server], rec *recorder, seed int64, stream uint64, op0 int64, dur time.Duration,
	handle func(o *replayOp, srv *webserver.Server) error) (int, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int
		first error
	)
	deadline := time.Now().Add(dur)
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mix := newMixPicker(seed, stream*connections+uint64(c))
			done := make(chan error, 1)
			n := 0
			var err error
			for time.Now().Before(deadline) {
				op := op0 + int64(c)<<32 + int64(n)
				o := &replayOp{model: mix.next(), op: op, rec: rec}
				o.root = rec.begin("bench.request", -1, op)
				queue := rec.begin("fleet.queue_wait", o.root, op)
				if err = pool.TrySubmit(func(_ int, srv *webserver.Server) error {
					rec.end(queue)
					err := handle(o, srv)
					done <- err
					return err
				}); err != nil {
					break
				}
				err = <-done
				rec.end(o.root)
				if err != nil {
					break
				}
				n++
			}
			mu.Lock()
			defer mu.Unlock()
			total += n
			if err != nil && first == nil {
				first = err
			}
		}(c)
	}
	wg.Wait()
	return total, first
}

// alternate runs traceBlocks blocks of one in-process part, tracing
// every second one, and returns the tracing overhead in percent of the
// untraced time per operation.
func (l *ledger) alternate(part string, rec *recorder, block func(rec *recorder, b int, dur time.Duration) (int, error)) (float64, error) {
	var ops [2]int
	var took [2]time.Duration
	dur := l.partDur / traceBlocks
	for b := 0; b < traceBlocks; b++ {
		traced := b % 2
		var r *recorder
		if traced == 1 {
			r = rec
		}
		t0 := time.Now()
		n, err := block(r, b, dur)
		took[traced] += time.Since(t0)
		ops[traced] += n
		if err != nil {
			return 0, fmt.Errorf("%s replay: %w", part, err)
		}
	}
	l.attempted += ops[0] + ops[1]
	if ops[0] == 0 || ops[1] == 0 {
		return 0, fmt.Errorf("%s replay completed no operations", part)
	}
	per := func(i int) float64 { return took[i].Seconds() / float64(ops[i]) }
	return 100 * (per(1) - per(0)) / per(0), nil
}

// sharedReplay replays the serve-shared mix on long-lived machines.
// Each block gets new machines, as each segment of an untraced run gets
// a new daemon: CGI requests leak frames, and a machine that served
// every block would run out of simulated physical memory.
func (l *ledger) sharedReplay() error {
	tmpl, err := webserver.BootServer(fileSize)
	if err != nil {
		return err
	}
	rec := newRecorder(sharedTraceEvery)
	overhead, err := l.alternate("serve-shared", rec, func(r *recorder, b int, dur time.Duration) (int, error) {
		pool, err := fleet.New(fleet.Config{Workers: connections, Queue: 4 * connections},
			func(int) (*webserver.Server, error) { return tmpl.Clone() })
		if err != nil {
			return 0, err
		}
		defer pool.Close()
		return replay(pool, r, l.cfg.seed, uint64(b), int64(b)<<40, dur, func(o *replayOp, srv *webserver.Server) error {
			sp := o.rec.begin("webserver.request."+modelNames[o.model], o.root, o.op)
			status, err := srv.ServeRequest(modelOf[o.model])
			o.rec.end(sp)
			return statusErr(status, err)
		})
	})
	if err != nil {
		return err
	}
	spans := rec.snapshot()
	l.spans["serve-shared"] = spans
	lt := aggregate(spans)
	l.set("trace.overhead_pct.serve-shared", overhead, "%")
	l.set("fleet.queue_wait_us", lt.medianUs("fleet.queue_wait"), "us")
	for _, name := range modelNames {
		l.set("webserver.request_us."+name, lt.medianUs("webserver.request."+name), "us")
	}
	return nil
}

// cloneReplay replays the serve-clone mix: every request on a fresh
// clone from a warm pool, the template restored from its image as the
// daemon's -restore does.
func (l *ledger) cloneReplay() error {
	boot, err := webserver.BootServer(fileSize)
	if err != nil {
		return err
	}
	img := boot.SaveBytes()
	var restores []float64
	var tmpl *webserver.Server
	for i := 0; i < restoreRuns; i++ {
		t0 := time.Now()
		if tmpl, err = webserver.LoadServerBytes(img); err != nil {
			return fmt.Errorf("restoring template: %w", err)
		}
		restores = append(restores, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	l.set("webserver.restore_ms", median(restores), "ms")

	// The workers are cloned before the clone pool starts: the template
	// must not be forked from two goroutines at once.
	pool, err := fleet.New(fleet.Config{Workers: connections, Queue: 4 * connections},
		func(int) (*webserver.Server, error) { return tmpl.Clone() })
	if err != nil {
		return err
	}
	defer pool.Close()
	rec := newRecorder(cloneTraceEvery)
	var tracing atomic.Bool // the filler records only during traced blocks
	clones := fleet.NewClonePool(2, func() (*webserver.Server, error) {
		r := rec
		if !tracing.Load() {
			r = nil
		}
		sp := r.begin("webserver.clone", -1, -1)
		c, err := tmpl.Clone()
		r.end(sp)
		return c, err
	}, func(c *webserver.Server) { c.S.K.Phys.Release() })
	defer clones.Close()
	overhead, err := l.alternate("serve-clone", rec, func(r *recorder, b int, dur time.Duration) (int, error) {
		tracing.Store(r != nil)
		return replay(pool, r, l.cfg.seed, uint64(b), int64(b)<<40, dur, func(o *replayOp, _ *webserver.Server) error {
			sp := o.rec.begin("fleet.take", o.root, o.op)
			c, err := clones.Take()
			o.rec.end(sp)
			if err != nil {
				return err
			}
			sp = o.rec.begin("webserver.first_request."+modelNames[o.model], o.root, o.op)
			status, err := c.ServeRequest(modelOf[o.model])
			o.rec.end(sp)
			sp = o.rec.begin("mem.release", o.root, o.op)
			clones.Discard(c)
			o.rec.end(sp)
			return statusErr(status, err)
		})
	})
	if err != nil {
		return err
	}
	clones.Close() // the filler records no span after the snapshot
	spans := rec.snapshot()
	l.spans["serve-clone"] = spans
	lt := aggregate(spans)
	l.set("trace.overhead_pct.serve-clone", overhead, "%")
	l.set("fleet.take_us", lt.medianUs("fleet.take"), "us")
	l.set("webserver.clone_us", lt.medianUs("webserver.clone"), "us")
	l.set("mem.release_us", lt.medianUs("mem.release"), "us")
	for _, name := range modelNames {
		l.set("webserver.first_request_us."+name, lt.medianUs("webserver.first_request."+name), "us")
	}
	return nil
}

func statusErr(status int, err error) error {
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d", status)
	}
	return err
}

// extensionsPart runs the extension passes with spans around each
// invocation.
func (l *ledger) extensionsPart() error {
	in := newExtInputs(l.cfg.seed)
	x, _, loads, err := bootTimed(&in, extSetupRuns)
	if err != nil {
		return err
	}
	l.set("verify.load_ms", median(loads)*1e3, "ms")
	x.runPasses(&in, l.checks, nil, warmup/2, 0)
	rec := newRecorder(extTraceEvery)
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	passes := 0
	var (
		untracedUs []float64
		instr      uint64        // instructions retired in untraced blocks
		instrTime  time.Duration // and those blocks' time
	)
	overhead, err := l.alternate("extensions", rec, func(r *recorder, b int, dur time.Duration) (int, error) {
		i0, t0 := x.sys.K.Machine.Instructions(), time.Now()
		lat, attempted, failed := x.runPasses(&in, l.checks, r, dur, int64(b)<<40)
		if r == nil {
			untracedUs = append(untracedUs, lat...)
			instr += x.sys.K.Machine.Instructions() - i0
			instrTime += time.Since(t0)
		}
		passes += attempted
		l.failed += failed
		return attempted, nil
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&gc1)
	spans := rec.snapshot()
	l.spans["extensions"] = spans
	lt := aggregate(spans)
	l.set("trace.overhead_pct.extensions", overhead, "%")
	l.set("tail.p99_us.extensions", summarize(untracedUs, 0.99).tail, "us")
	l.set("cpu.sim_mips", float64(instr)/instrTime.Seconds()/1e6, "Minstr/s")
	l.set("runtime.gc_per_kop.extensions", float64(gc1.NumGC-gc0.NumGC)/(float64(passes)/1000), "count/kop")
	for _, name := range []string{spanFilterKernel, spanFilterBPF, spanHotLoop, spanStrrev} {
		l.set("sandbox.invoke_us."+strings.TrimPrefix(name, "sandbox.invoke."), lt.medianUs(name), "us")
	}
	l.set("core.invoke_tx_us", lt.medianUs(spanInvokeTx), "us")
	return nil
}

// serveCounts takes the serving path's exact counts on serial
// segments: frame growth on one long-lived machine, and what one
// request costs a fresh clone.
func (l *ledger) serveCounts() error {
	tmpl, err := webserver.BootServer(fileSize)
	if err != nil {
		return err
	}
	srv, err := tmpl.Clone()
	if err != nil {
		return err
	}
	mix := newMixPicker(l.cfg.seed, 1<<20)
	frames0 := srv.S.K.Phys.FrameCount()
	for i := 0; i < frameCountRequests; i++ {
		if err := statusErr(srv.ServeRequest(modelOf[mix.next()])); err != nil {
			return err
		}
	}
	l.set("mem.frames_per_kop", float64(srv.S.K.Phys.FrameCount()-frames0)/frameCountRequests*1000, "count/kop")

	// On a fresh clone: COW copies, decoded-block builds and TLB misses
	// of its one request.
	var copies, builds, misses uint64
	for i := 0; i < cowCountRequests; i++ {
		c, err := tmpl.Clone()
		if err != nil {
			return err
		}
		count := func() (uint64, uint64, uint64) {
			_, cow, _ := c.S.K.Phys.COWStats()
			_, b, _ := c.S.K.Machine.BlockCacheStats()
			_, m, _ := c.S.K.MMU.TLB().Stats()
			return cow, b, m
		}
		cow0, b0, m0 := count()
		if err := statusErr(c.ServeRequest(modelOf[mix.next()])); err != nil {
			return err
		}
		cow1, b1, m1 := count()
		copies, builds, misses = copies+cow1-cow0, builds+b1-b0, misses+m1-m0
		c.S.K.Phys.Release()
	}
	l.set("mem.cow_copies_per_op", float64(copies)/cowCountRequests, "count")
	l.set("cpu.block_builds_per_op.serve-clone", float64(builds)/cowCountRequests, "count")
	l.set("mmu.tlb_misses_per_op.serve-clone", float64(misses)/cowCountRequests, "count")
	return nil
}

// extensionCounts takes the CPU and MMU counts of a pass on a freshly
// booted system, after warmPasses passes.
func (l *ledger) extensionCounts() error {
	in := newExtInputs(l.cfg.seed)
	x, err := bootExtensions(in.terms)
	if err != nil {
		return err
	}
	m := x.sys.K.Machine
	snap := func() [4]uint64 {
		_, builds, _ := m.BlockCacheStats()
		ts := m.TraceStats()
		_, misses, _ := x.sys.K.MMU.TLB().Stats()
		return [4]uint64{builds, ts.DeoptTick + ts.DeoptFault + ts.DeoptPage + ts.DeoptBudget, misses, m.MMU.ElidedChecks()}
	}
	for i := 0; i < warmPasses; i++ {
		if err := x.pass(&in, l.checks, nil, 0); err != nil {
			return err
		}
	}
	c0 := snap()
	for i := 0; i < countedPasses; i++ {
		if err := x.pass(&in, l.checks, nil, 0); err != nil {
			return err
		}
	}
	c1 := snap()
	per := func(i int) float64 { return float64(c1[i]-c0[i]) / countedPasses }
	l.set("cpu.block_builds_per_op", per(0), "count")
	l.set("cpu.trace_deopts_per_op", per(1), "count")
	l.set("mmu.tlb_misses_per_op", per(2), "count")
	l.set("mmu.elided_checks_per_op", per(3), "count")
	return nil
}
