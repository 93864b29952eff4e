package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's origin; parent is the index of the enclosing span in the
// recorder (-1 for a root) and op the operation the span belongs to
// (-1 for background work such as the clone pool's filler).
type span struct {
	name       string
	parent     int
	op         int64
	start, end int64
}

// recorder keeps the spans of a traced run in memory; they are written
// out once, when the run ends. Spans of concurrent calls (fleet workers,
// the clone filler) are recorded from several goroutines. To bound the
// memory and the dump of parts that run hundreds of thousands of
// operations, a recorder traces only operations whose id is a multiple
// of every; background spans (op < 0) are always recorded.
type recorder struct {
	origin time.Time
	every  int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder(every int64) *recorder {
	return &recorder{origin: time.Now(), every: every, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index for end, or -1 when nothing
// is recorded. A nil recorder records nothing, so untraced code paths
// share the traced ones.
func (r *recorder) begin(name string, parent int, op int64) int {
	if r == nil || (op >= 0 && op%r.every != 0) {
		return -1
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, parent: parent, op: op, start: now})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// end closes span i.
func (r *recorder) end(i int) {
	if i < 0 {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// snapshot returns the recorded spans; call it once every goroutine
// that records has stopped.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (a
// parent waiting on two concurrent calls) are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.end - s.start) - covered(s.start, s.end, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped
// to [lo, hi).
func covered(lo, hi int64, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// layerTimes aggregates one part's spans by name: the durations of
// every span of that name (µs) and the summed self time (ns) of the
// spans that belong to an operation.
type layerTimes struct {
	durUs  map[string][]float64
	selfNs map[string]int64
	rootNs int64 // summed duration of root spans: the part's traced host time
}

func aggregate(spans []span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{durUs: map[string][]float64{}, selfNs: map[string]int64{}}
	for i, s := range spans {
		lt.durUs[s.name] = append(lt.durUs[s.name], float64(s.end-s.start)/1e3)
		if s.op < 0 {
			continue // background work, such as the clone filler's forks
		}
		lt.selfNs[s.name] += self[i]
		if s.parent < 0 {
			lt.rootNs += s.end - s.start
		}
	}
	return lt
}

// medianUs is the median duration of the spans named name, in µs.
func (lt layerTimes) medianUs(name string) float64 {
	return median(append([]float64(nil), lt.durUs[name]...))
}

// layerSelfPct is the share of the part's traced host time spent in
// the layer's own spans (names prefixed "layer."), children excluded.
func (lt layerTimes) layerSelfPct(layer string) float64 {
	var ns int64
	for name, v := range lt.selfNs {
		if strings.HasPrefix(name, layer+".") {
			ns += v
		}
	}
	if lt.rootNs == 0 {
		return 0
	}
	return 100 * float64(ns) / float64(lt.rootNs)
}

// writeSpans dumps spans as tab-separated lines: part, name, op,
// parent, start ns, end ns.
func writeSpans(path string, parts map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "part\tname\top\tparent\tstart_ns\tend_ns")
	names := make([]string, 0, len(parts))
	for p := range parts {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		for _, s := range parts[p] {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\n", p, s.name, s.op, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
