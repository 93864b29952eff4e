package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"

	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/filter"
	"repro/internal/isa"
	"repro/sandbox"
)

// hotLoopSrc is a counted compute loop, Σ1..1000, with a scratch store
// and load per iteration that the verifier proves in bounds.
const hotLoopSrc = `
	.global hotloop
	.text
	hotloop:
		mov eax, 0
		mov ecx, 1000
	loop:
		add eax, ecx
		mov [scratch], eax
		mov ebx, [scratch]
		dec ecx
		jne loop
		ret
	.data
	scratch: .long 0
`

// hotLoopResult is Σ1..1000.
const hotLoopResult = 500500

// wildSrc stores through its argument. The verifier cannot prove the
// store out of bounds, so it loads; invoked with wildOffset it trips
// the segment limit at run time.
const wildSrc = `
	.global wild
	.text
	wild:
		mov ecx, [esp+4]
		mov [ecx], ecx
		mov eax, 1
		ret
`

// wildOffset lies far beyond any extension segment's limit.
const wildOffset = 0x7ff00000

const (
	maxTerms     = 4  // Figure 7's x axis: 0..4 conjunction terms
	passPackets  = 4  // packets per pass, each through all ten filters
	passStrings  = 4  // strrev invocations per pass
	minStrLen    = 32 // Table 2's sizes run 32..256 bytes
	maxStrLen    = 256
	warmPasses   = 50
	extSetupRuns = 51 // the ledger's verify.load_ms is the median of this many boots
	// An untraced run times bootsPerSlice boots after each timeSlice of
	// passes; setup_s is the median of all of them, spread over the run.
	// A boot takes about a millisecond.
	bootsPerSlice = 3
	timeSlice     = time.Second
	countedPasses = 200 // passes the exact per-op counts are taken over
)

// figure7Compiled is Figure 7's warm match cost of an all-true packet
// through the compiled filter, in cycles, by term count.
var figure7Compiled = [maxTerms + 1]float64{234, 247, 256, 265, 274}

// figure7Interp is the interpreted filter's: 210 + 170 per term.
func figure7Interp(terms int) float64 { return 210 + 170*float64(terms) }

// extInputs is one seeded pass: the same sequence of invocations runs
// in every pass of a run.
type extInputs struct {
	terms   []bpf.Term // all true for filter.MakeUDPPacket's bytes
	packets [][]byte
	verdict [][maxTerms + 1]bool // Go evaluation per packet and term count
	strs    [][]byte
	want    [][]byte // the Go-reversed strings
}

// newExtInputs generates a pass from seed: packets of seeded length
// whose term fields are, for half of them, corrupted at a seeded term
// (so filters with more terms than that reject them), and strings of
// seeded length and letters.
func newExtInputs(seed int64) extInputs {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xe7))
	in := extInputs{terms: filter.TermsTrueFor(filter.MakeUDPPacket(1234, 53, 64), maxTerms)}
	for i := 0; i < passPackets; i++ {
		pkt := filter.MakeUDPPacket(uint16(rng.IntN(1<<16)), uint16(rng.IntN(1<<16)), 42+rng.IntN(87))
		if rng.IntN(2) == 0 {
			t := in.terms[rng.IntN(len(in.terms))]
			pkt[t.Offset] ^= byte(1 + rng.IntN(255))
		}
		var v [maxTerms + 1]bool
		for n := 0; n <= maxTerms; n++ {
			v[n] = evalTerms(in.terms[:n], pkt)
		}
		in.packets = append(in.packets, pkt)
		in.verdict = append(in.verdict, v)
	}
	// String i's length is drawn from the i-th of passStrings equal
	// strata of [minStrLen, maxStrLen], so every seed does about the
	// same reversal work.
	stratum := (maxStrLen - minStrLen) / passStrings
	for i := 0; i < passStrings; i++ {
		s := make([]byte, minStrLen+i*stratum+rng.IntN(stratum+1))
		for j := range s {
			s[j] = byte('a' + rng.IntN(26))
		}
		r := make([]byte, len(s))
		for j := range s {
			r[len(s)-1-j] = s[j]
		}
		in.strs = append(in.strs, append(s, 0))
		in.want = append(in.want, r)
	}
	return in
}

// evalTerms is the Go evaluation of a conjunction: every term's
// big-endian field equals its value.
func evalTerms(terms []bpf.Term, pkt []byte) bool {
	for _, t := range terms {
		end := int(t.Offset) + int(t.Size)
		if end > len(pkt) {
			return false
		}
		var v uint32
		for _, b := range pkt[t.Offset:end] {
			v = v<<8 | uint32(b)
		}
		if v != t.Value {
			return false
		}
	}
	return true
}

// extSystem is one booted system with every extension of the workload
// loaded through the sandbox with the static verifier on.
type extSystem struct {
	sys      *core.System
	app      *core.App
	compiled [maxTerms + 1]*filter.Filter // palladium-kernel
	interp   [maxTerms + 1]*filter.Filter // bpf
	hot      sandbox.Extension            // palladium-kernel
	strrev   sandbox.Extension            // palladium-user
	wild     sandbox.Extension            // palladium-kernel, faults
	loadDur  time.Duration                // summed Load time, verification included
	strBuf   []byte
}

// bootExtensions boots a system and loads the workload's extensions.
func bootExtensions(terms []bpf.Term) (*extSystem, error) {
	sys, err := core.NewSystem(cycles.Measured())
	if err != nil {
		return nil, err
	}
	if _, err := sys.K.CreateProcess(); err != nil {
		return nil, err
	}
	host := sandbox.HostFor(sys)
	x := &extSystem{sys: sys, strBuf: make([]byte, maxStrLen)}
	open := func(name string) (sandbox.Backend, error) { return sandbox.Open(name, host) }
	kern, err := open("palladium-kernel")
	if err != nil {
		return nil, err
	}
	bpfB, err := open("bpf")
	if err != nil {
		return nil, err
	}
	user, err := open("palladium-user")
	if err != nil {
		return nil, err
	}
	load := func(b sandbox.Backend, obj *isa.Object, opts sandbox.LoadOptions) (sandbox.Extension, error) {
		t0 := time.Now()
		ext, err := b.Load(obj, sandbox.WithVerify(opts))
		x.loadDur += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("loading %s under %s: %w", opts.Entry, b.Name(), err)
		}
		return ext, nil
	}
	for n := 0; n <= maxTerms; n++ {
		ie, err := load(bpfB, nil, sandbox.LoadOptions{BPF: bpf.Conjunction(terms[:n])})
		if err != nil {
			return nil, err
		}
		x.interp[n] = filter.NewFilter("BPF", ie, false)
		obj, entry, err := filter.CompileObject(terms[:n])
		if err != nil {
			return nil, err
		}
		ce, err := load(kern, obj, sandbox.LoadOptions{Entry: entry, SharedSymbol: "shared_area"})
		if err != nil {
			return nil, err
		}
		x.compiled[n] = filter.NewFilter("Palladium", ce, true)
	}
	if x.hot, err = load(kern, isa.MustAssemble("hotloop", hotLoopSrc), sandbox.LoadOptions{Entry: "hotloop"}); err != nil {
		return nil, err
	}
	if x.strrev, err = load(user, isa.MustAssemble("strrev", experiments.StrrevSrc),
		sandbox.LoadOptions{Entry: "strrev", SharedBytes: maxStrLen + 1}); err != nil {
		return nil, err
	}
	if x.wild, err = load(kern, isa.MustAssemble("wild", wildSrc), sandbox.LoadOptions{Entry: "wild"}); err != nil {
		return nil, err
	}
	if x.app, err = host.App(); err != nil {
		return nil, err
	}
	return x, nil
}

// Span names of the extension layers, one per invocation kind.
const (
	spanFilterKernel = "sandbox.invoke.filter-kernel"
	spanFilterBPF    = "sandbox.invoke.filter-bpf"
	spanHotLoop      = "sandbox.invoke.hotloop-kernel"
	spanStrrev       = "sandbox.invoke.strrev-user"
	spanInvokeTx     = "core.invoke_tx"
	spanPass         = "bench.pass"
)

// pass runs one operation: every packet through every compiled and
// interpreted filter, the hot loop, strrev on every string and the
// faulting extension under a transaction. Output mismatches go to
// checks; an unexpected error fails the operation. With a recorder,
// each invocation is a span under the pass's root span.
func (x *extSystem) pass(in *extInputs, checks *checkLog, rec *recorder, op int64) error {
	root := rec.begin(spanPass, -1, op)
	defer rec.end(root)
	for p, pkt := range in.packets {
		for n := 0; n <= maxTerms; n++ {
			for _, f := range [2]*filter.Filter{x.compiled[n], x.interp[n]} {
				name := spanFilterKernel
				if f == x.interp[n] {
					name = spanFilterBPF
				}
				sp := rec.begin(name, root, op)
				got, err := f.Match(pkt)
				rec.end(sp)
				if err != nil {
					return fmt.Errorf("%s filter, %d terms: %w", f.Name(), n, err)
				}
				if got != in.verdict[p][n] {
					checks.fail("%s filter with %d terms says %v on packet %d, Go evaluation %v",
						f.Name(), n, got, p, in.verdict[p][n])
				}
			}
		}
	}
	sp := rec.begin(spanHotLoop, root, op)
	v, err := x.hot.Invoke(0)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("hot loop: %w", err)
	}
	if v != hotLoopResult {
		checks.fail("hot loop returned %d, want %d", v, hotLoopResult)
	}
	st := x.strrev.(sandbox.Stager)
	for i, s := range in.strs {
		sp := rec.begin(spanStrrev, root, op)
		err := st.Stage(s)
		if err == nil {
			_, err = x.strrev.Invoke(st.SharedArg())
		}
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("strrev: %w", err)
		}
		got := x.strBuf[:len(in.want[i])]
		if err := x.app.ReadMemInto(st.SharedArg(), got); err != nil {
			return fmt.Errorf("reading strrev result: %w", err)
		}
		if string(got) != string(in.want[i]) {
			checks.fail("strrev left %q in shared memory, want %q", got, in.want[i])
		}
	}
	sp = rec.begin(spanInvokeTx, root, op)
	_, err = x.wild.Invoke(wildOffset, sandbox.WithTx())
	rec.end(sp)
	var f *sandbox.Fault
	if !errors.As(err, &f) || !f.RolledBack {
		return fmt.Errorf("faulting extension under WithTx: got %v, want a rolled-back *sandbox.Fault", err)
	}
	return nil
}

// checkRollbackState checks, once per run, that the faulting call
// leaves physical memory and the simulated clock as they were.
func (x *extSystem) checkRollbackState(checks *checkLog) error {
	fp, clk := x.sys.K.Phys.Fingerprint(), x.sys.K.Clock.Cycles()
	_, err := x.wild.Invoke(wildOffset, sandbox.WithTx())
	var f *sandbox.Fault
	if !errors.As(err, &f) || !f.RolledBack {
		return fmt.Errorf("faulting extension under WithTx: got %v, want a rolled-back *sandbox.Fault", err)
	}
	if x.sys.K.Phys.Fingerprint() != fp {
		checks.fail("physical memory changed across a rolled-back call")
	}
	if x.sys.K.Clock.Cycles() != clk {
		checks.fail("clock moved from %v to %v across a rolled-back call", clk, x.sys.K.Clock.Cycles())
	}
	return nil
}

// checkFigure7 boots a fresh system, loads the Figure 7 filters the
// way the workload does, and checks the warm match of an all-true
// packet by Figure 7's method: the second match, with no timer tick
// inside it.
func checkFigure7(checks *checkLog) error {
	pkt := filter.MakeUDPPacket(1234, 53, 64)
	terms := filter.TermsTrueFor(pkt, maxTerms)
	x, err := bootExtensions(terms)
	if err != nil {
		return err
	}
	ticks := 0
	remove := x.sys.K.OnTimerTick(func() error { ticks++; return nil })
	defer remove()
	for n := 0; n <= maxTerms; n++ {
		for _, c := range []struct {
			f    *filter.Filter
			want float64
		}{{x.interp[n], figure7Interp(n)}, {x.compiled[n], figure7Compiled[n]}} {
			if _, err := c.f.Match(pkt); err != nil {
				return err
			}
			ticks = 0
			start := x.sys.K.Clock.Cycles()
			ok, err := c.f.Match(pkt)
			cyc := x.sys.K.Clock.Cycles() - start
			if err != nil {
				return err
			}
			switch {
			case ticks != 0:
				checks.fail("%s %d-term match took a timer tick", c.f.Name(), n)
			case !ok:
				checks.fail("%s %d-term filter rejects an all-true packet", c.f.Name(), n)
			case cyc != c.want:
				checks.fail("%s %d-term warm match costs %v cycles, Figure 7 %v", c.f.Name(), n, cyc, c.want)
			}
		}
	}
	return nil
}

// cpuSelf is this process's user+system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// bootTimed boots the workload `runs` times and returns the last system
// with each boot's boot+load+verify time and Load time, in seconds.
func bootTimed(in *extInputs, runs int) (x *extSystem, setups, loads []float64, err error) {
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		if x, err = bootExtensions(in.terms); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, x.loadDur.Seconds())
	}
	return x, setups, loads, nil
}

// runPasses runs passes until dur has passed and returns each pass's
// duration in µs, with the attempted and failed counts.
func (x *extSystem) runPasses(in *extInputs, checks *checkLog, rec *recorder, dur time.Duration, op0 int64) (lat []float64, attempted, failed int) {
	lat = make([]float64, 0, 1<<16)
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		err := x.pass(in, checks, rec, op0+int64(attempted))
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		attempted++
		if err != nil {
			failed++
			if failed <= 5 {
				logf("extensions: operation failed: %v", err)
			}
		}
	}
	return lat, attempted, failed
}

// runExtensions is an untraced run of the extensions workload. Its
// timed passes run in slices of timeSlice; after each slice, outside
// the timed phase, it boots the workload bootsPerSlice times to time
// set-up. Rate and CPU are medians over the slices.
func runExtensions(cfg config) (result, error) {
	checks := &checkLog{}
	in := newExtInputs(cfg.seed)
	x, setups, _, err := bootTimed(&in, bootsPerSlice)
	if err != nil {
		return result{}, err
	}
	if err := checkFigure7(checks); err != nil {
		return result{}, err
	}
	if err := x.checkRollbackState(checks); err != nil {
		return result{}, err
	}
	x.runPasses(&in, checks, nil, warmup, 0)

	var (
		lat               []float64
		attempted, failed int
		elapsed           time.Duration
		allocB            uint64
		rate, cpuPerOp    []float64 // per slice
	)
	for elapsed < time.Duration(cfg.seconds)*time.Second {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, t0 := cpuSelf(), time.Now()
		l, a, f := x.runPasses(&in, checks, nil, timeSlice, int64(attempted))
		took := time.Since(t0)
		elapsed += took
		rate = append(rate, float64(a-f)/took.Seconds())
		cpuPerOp = append(cpuPerOp, float64((cpuSelf()-cpu0).Microseconds())/float64(a))
		runtime.ReadMemStats(&m1)
		allocB += m1.TotalAlloc - m0.TotalAlloc
		lat, attempted, failed = append(lat, l...), attempted+a, failed+f

		_, s, _, err := bootTimed(&in, bootsPerSlice)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s...)
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(x) // the system is live until the run ends

	secs := elapsed.Seconds()
	s := summarize(lat, 0.99)
	logf("extensions: %d passes in %.2fs; p99 %.1fus over %d samples (tail is median: %v)", attempted, secs, s.tail, s.n, s.tailIsMedian)
	logf("extensions: passes/s per slice %s", spreadOf(rate))
	return result{
		Correct:   checks.ok(),
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"ops_per_s":       {median(rate), "1/s"},
			"p50_us":          {s.p50, "us"},
			"cpu_us_per_op":   {median(cpuPerOp), "us"},
			"alloc_kb_per_op": {float64(allocB) / 1024 / float64(attempted), "KB"},
			"heap_mb":         {float64(live.HeapAlloc) / (1 << 20), "MB"},
			"setup_s":         {median(setups), "s"},
		},
	}, nil
}
