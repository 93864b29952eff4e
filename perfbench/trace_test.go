package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "bench.request", parent: -1, op: 1, start: 0, end: 100},
		{name: "fleet.queue_wait", parent: 0, op: 1, start: 0, end: 10},
		{name: "webserver.request.cgi", parent: 0, op: 1, start: 20, end: 60},
		// Overlaps its sibling: the union is counted once.
		{name: "mem.release", parent: 0, op: 1, start: 50, end: 70},
		// A child running past its parent is clipped to it.
		{name: "core.x", parent: 2, op: 1, start: 55, end: 65},
		// Background work belongs to no operation.
		{name: "webserver.clone", parent: -1, op: -1, start: 0, end: 500},
	}
	want := []int64{100 - 10 - 50, 10, 40 - 5, 20, 10, 500}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	lt := aggregate(spans)
	if lt.rootNs != 100 {
		t.Errorf("traced host time = %d, want 100 (background spans excluded)", lt.rootNs)
	}
	if p := lt.layerSelfPct("bench"); p != 40 {
		t.Errorf("bench self share = %v%%, want 40%%", p)
	}
	if p := lt.layerSelfPct("webserver"); p != 35 {
		t.Errorf("webserver self share = %v%%, want 35%% (background clone excluded)", p)
	}
	if m := lt.medianUs("mem.release"); m != 0.02 {
		t.Errorf("median mem.release = %vus, want 0.02", m)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	i := r.begin("x", -1, 0)
	r.end(i)
	if i != -1 {
		t.Errorf("nil recorder returned span %d", i)
	}
	sampled := newRecorder(4)
	sampled.end(sampled.begin("bench.pass", -1, 5)) // not a multiple of 4
	sampled.end(sampled.begin("webserver.clone", -1, -1))
	sampled.end(sampled.begin("bench.pass", -1, 8))
	if sp := sampled.snapshot(); len(sp) != 2 || sp[0].op != -1 || sp[1].op != 8 {
		t.Errorf("sampling recorder kept %+v; want the background span and op 8", sp)
	}
	rec := newRecorder(1)
	root := rec.begin("bench.pass", -1, 3)
	child := rec.begin("sandbox.invoke.x", root, 3)
	rec.end(child)
	rec.end(root)
	sp := rec.snapshot()
	if len(sp) != 2 || sp[1].parent != 0 || sp[0].end < sp[1].end || sp[1].op != 3 {
		t.Errorf("recorded %+v", sp)
	}
}
