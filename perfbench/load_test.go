package main

import (
	"bufio"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseHeaders(t *testing.T) {
	if v, err := parseWallMicros("123"); err != nil || v != 123 {
		t.Errorf("parseWallMicros(123) = %v, %v", v, err)
	}
	for _, bad := range []string{"", "-1", "12.5", "x"} {
		if _, err := parseWallMicros(bad); err == nil {
			t.Errorf("parseWallMicros(%q) accepted", bad)
		}
	}
	if v, err := parseSimMicros("2429.970"); err != nil || v != 2429.97 {
		t.Errorf("parseSimMicros(2429.970) = %v, %v", v, err)
	}
	// The header is printed with exactly three decimals; anything else
	// means the clone check would compare at the wrong precision.
	for _, bad := range []string{"", "2429.97", "2429", ".970", "0.000", "abc.def"} {
		if _, err := parseSimMicros(bad); err == nil {
			t.Errorf("parseSimMicros(%q) accepted", bad)
		}
	}
}

func TestReadResponse(t *testing.T) {
	body := `status=200 model="LibCGI (protected)" sim_us=2429.970 wall_us=41` + "\n"
	raw := "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nX-Model: LibCGI (protected)\r\n" +
		"X-Sim-Micros: 2429.970\r\nX-Wall-Micros: 41\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
	// Two responses back to back on one keep-alive stream.
	br := bufio.NewReader(strings.NewReader(raw + raw))
	var r response
	for i := 0; i < 2; i++ {
		if _, err := readResponse(br, &r); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		s, problem := parseResponse(4, &r)
		if problem != "" || s.simUs != 2429.97 || s.wallUs != 41 || r.status != 200 {
			t.Fatalf("response %d: %+v, %q", i, s, problem)
		}
	}
	if _, problem := parseResponse(3, &r); problem == "" {
		t.Error("a libcgi request answered as protected LibCGI passed")
	}
	r.body = []byte(`status=500 model="LibCGI (protected)"`)
	if _, problem := parseResponse(4, &r); problem == "" {
		t.Error("a body without status=200 passed")
	}
	for _, bad := range []string{
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-Model: x\r\n\r\n",
		"HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
	} {
		if _, err := readResponse(bufio.NewReader(strings.NewReader(bad)), &r); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseDaemonText(t *testing.T) {
	heap := "heap profile: 1: 2 [3: 4] @ heap/1048576\n# runtime.MemStats\n# Alloc = 10\n# TotalAlloc = 2048\n" +
		"# HeapAlloc = 1048576\n# PauseNs = [1 2 3]\n# NumGC = 7\n"
	st, err := parseHeapStats(heap)
	if err != nil || st["TotalAlloc"] != 2048 || st["HeapAlloc"] != 1<<20 || st["NumGC"] != 7 {
		t.Errorf("parseHeapStats = %v, %v", st, err)
	}
	if _, err := parseHeapStats("# Alloc = 1\n"); err == nil {
		t.Error("heap text without TotalAlloc accepted")
	}
	m := parseMetrics("# serving tier\npalladium_serve_completed_total 42\n" +
		"palladium_fleet_worker_requests_total{worker=\"0\"} 9\npalladium_clone_cold_steals_total 3\n")
	if m["palladium_serve_completed_total"] != 42 || m["palladium_clone_cold_steals_total"] != 3 || len(m) != 2 {
		t.Errorf("parseMetrics = %v", m)
	}
	// The command name may hold spaces and parentheses.
	stat := "4242 (palladium (x) serve) S 1 2 3 4 5 6 7 8 9 10 250 17 0 0"
	if d, err := parseProcStatCPU(stat); err != nil || d != 2670*time.Millisecond {
		t.Errorf("parseProcStatCPU = %v, %v; want 2.67s", d, err)
	}
}

func TestMixIsSeeded(t *testing.T) {
	a, b, c := newMixPicker(7, 1), newMixPicker(7, 1), newMixPicker(8, 1)
	same, differs := true, false
	counts := make([]int, len(modelNames))
	total := 0
	for _, w := range modelWeight {
		total += w
	}
	rounds := 37
	for i := 0; i < rounds*total*roundScale; i++ {
		x, y, z := a.next(), b.next(), c.next()
		same = same && x == y
		differs = differs || x != z
		counts[x]++
	}
	if !same || !differs {
		t.Errorf("same seed identical: %v, other seed differs: %v", same, differs)
	}
	// Whole rounds hold the mix's exact shares.
	for i, w := range modelWeight {
		if want := rounds * w * roundScale; counts[i] != want {
			t.Errorf("%s drawn %d times in %d rounds, want %d", modelNames[i], counts[i], rounds, want)
		}
	}
}
