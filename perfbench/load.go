package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"
)

// roundScale is how many times modelWeight one mix round holds: a
// round is 100 requests.
const roundScale = 10

// mixPicker walks a seeded sequence of models made of whole rounds, each
// round holding every model modelWeight[m]*roundScale times in a freshly
// shuffled order, so any whole number of rounds has the mix's exact
// shares.
type mixPicker struct {
	rng   *rand.Rand
	round []int
	i     int
}

func newMixPicker(seed int64, stream uint64) *mixPicker {
	p := &mixPicker{rng: rand.New(rand.NewPCG(uint64(seed), stream))}
	for m, w := range modelWeight {
		for j := 0; j < w*roundScale; j++ {
			p.round = append(p.round, m)
		}
	}
	p.i = len(p.round)
	return p
}

func (p *mixPicker) next() int {
	if p.i == len(p.round) {
		p.rng.Shuffle(len(p.round), func(a, b int) { p.round[a], p.round[b] = p.round[b], p.round[a] })
		p.i = 0
	}
	p.i++
	return p.round[p.i-1]
}

// sample is one answered request.
type sample struct {
	model  int
	rttUs  float64 // client round trip
	wallUs float64 // X-Wall-Micros: the daemon's admission-to-completion time
	simUs  float64 // X-Sim-Micros
}

// checker validates one 200 response against the benchmark's own
// reference; it returns a description of what is wrong, or "".
type checker func(model int, simHeader string, simUs float64) string

// loadResult is what one closed-loop drive saw.
type loadResult struct {
	attempted, failed int
	samples           []sample
	bad               []string // output check failures (first few kept)
	badCount          int
	elapsed           time.Duration
}

// drive runs `connections` closed-loop callers against the daemon: each
// sends its next request only once the previous response has been read.
// Each caller sends exactly perConn requests, or, when perConn is 0,
// sends until dur has passed. Requests are drawn from the seeded mix,
// stream per caller.
func drive(d *daemon, seed int64, stream uint64, perConn int, dur time.Duration, check checker) (loadResult, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		res  loadResult
		errs []error
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r, err := callerLoop(d, newMixPicker(seed, stream*connections+uint64(c)), perConn, deadline, check)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
			}
			res.attempted += r.attempted
			res.failed += r.failed
			res.samples = append(res.samples, r.samples...)
			res.badCount += r.badCount
			if len(res.bad) < 5 {
				res.bad = append(res.bad, r.bad...)
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if len(errs) > 0 {
		return res, errs[0]
	}
	d.served += res.attempted - res.failed
	return res, nil
}

// callerLoop is one closed-loop caller on its own keep-alive
// connection: perConn requests, or until the deadline when perConn is 0.
func callerLoop(d *daemon, mix *mixPicker, perConn int, deadline time.Time, check checker) (loadResult, error) {
	var res loadResult
	c, err := dialHTTP(strings.TrimPrefix(d.base, "http://"))
	if err != nil {
		return res, err
	}
	defer c.close()
	res.samples = make([]sample, 0, 1<<16)
	for (perConn > 0 && res.attempted < perConn) || (perConn == 0 && time.Now().Before(deadline)) {
		m := mix.next()
		res.attempted++
		t0 := time.Now()
		r, err := c.get(m)
		rtt := time.Since(t0)
		if err != nil {
			return res, fmt.Errorf("request %s: %w", modelNames[m], err)
		}
		if r.status != 200 {
			res.failed++
			continue
		}
		s, problem := parseResponse(m, r)
		if problem == "" {
			problem = check(m, r.sim, s.simUs)
		}
		if problem != "" {
			res.badCount++
			if len(res.bad) < 5 {
				res.bad = append(res.bad, problem)
			}
		}
		s.rttUs = float64(rtt.Nanoseconds()) / 1e3
		res.samples = append(res.samples, s)
	}
	return res, nil
}

// parseResponse reads a 200's headers and checks its body says
// status=200 and names the requested model.
func parseResponse(m int, r *response) (sample, string) {
	s := sample{model: m}
	want := modelOf[m].String()
	if r.model != want {
		return s, fmt.Sprintf("%s: X-Model %q, want %q", modelNames[m], r.model, want)
	}
	wall, err := parseWallMicros(r.wall)
	if err != nil {
		return s, fmt.Sprintf("%s: %v", modelNames[m], err)
	}
	sim, err := parseSimMicros(r.sim)
	if err != nil {
		return s, fmt.Sprintf("%s: %v", modelNames[m], err)
	}
	s.wallUs, s.simUs = wall, sim
	if !bytes.HasPrefix(r.body, []byte("status=200 ")) || !bytes.Contains(r.body, []byte("model="+strconv.Quote(want))) {
		return s, fmt.Sprintf("%s: body %q lacks status=200 or the model name", modelNames[m], strings.TrimSpace(string(r.body)))
	}
	return s, ""
}

// parseWallMicros reads X-Wall-Micros: whole microseconds.
func parseWallMicros(v string) (float64, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad X-Wall-Micros %q", v)
	}
	return float64(n), nil
}

// parseSimMicros reads X-Sim-Micros: simulated µs printed with three
// decimals.
func parseSimMicros(v string) (float64, error) {
	dot := strings.IndexByte(v, '.')
	if dot < 1 || len(v)-dot-1 != 3 {
		return 0, fmt.Errorf("bad X-Sim-Micros %q", v)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f <= 0 {
		return 0, fmt.Errorf("bad X-Sim-Micros %q", v)
	}
	return f, nil
}
