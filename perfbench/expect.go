package main

import (
	"fmt"
	"math"

	"repro/internal/webserver"
)

// fileSize is the served file: the Table 3 1 KB row.
const fileSize = 1024

// The five Table 3 models, by their ?model= names, and the mix the load
// generator sends, in requests per mix round. The weights are arbitrary,
// set by one rule: protected LibCGI, the paper's serving path, takes a
// 60% majority, and the other four models share the rest equally.
var (
	modelNames = []string{"static", "cgi", "fastcgi", "libcgi", "libcgi-prot"}
	modelOf    = []webserver.Model{webserver.Static, webserver.CGI, webserver.FastCGI,
		webserver.LibCGI, webserver.LibCGIProtected}
	modelWeight = []int{1, 1, 1, 1, 6}
)

// sharedTolerance is how far a long-lived machine's request may sit
// from the same model's first request on a freshly booted server: a
// machine's history (TLB warmth, the first LibCGI-family request being
// cheaper) moves the value by a few tens of cycles out of ~450 000.
const sharedTolerance = 0.001

// reference is one model's request on a server the benchmark boots
// itself, apart from the daemon.
type reference struct {
	// simUs is the simulated time of the first request on a freshly
	// booted server, in µs.
	simUs float64
}

// bootReferences serves one request of each model, each on its own
// freshly booted server.
func bootReferences(size uint32) ([]reference, error) {
	refs := make([]reference, len(modelOf))
	for i, m := range modelOf {
		srv, err := webserver.BootServer(size)
		if err != nil {
			return nil, fmt.Errorf("booting reference server: %w", err)
		}
		c0 := srv.SimCycles()
		status, err := srv.ServeRequest(m)
		if err != nil || status != 200 {
			return nil, fmt.Errorf("reference %s request: status %d, %v", modelNames[i], status, err)
		}
		refs[i] = reference{simUs: srv.S.Clock().Micros(srv.SimCycles() - c0)}
	}
	return refs, nil
}

// simHeader is the X-Sim-Micros value a fresh clone must print for the
// reference request: serving on a fresh clone has no history.
func (r reference) simHeader() string { return fmt.Sprintf("%.3f", r.simUs) }

// withinShared reports whether a long-lived machine's simulated time
// for the model is within sharedTolerance of the reference.
func (r reference) withinShared(simUs float64) bool {
	return math.Abs(simUs-r.simUs) <= sharedTolerance*r.simUs
}

// checkPaperOrder checks the models keep Table 3's order in simulated
// time per request, cgi > fastcgi > libcgi-prot > libcgi > static, with
// protection costing under 3% over unprotected LibCGI. simUs is indexed
// like modelNames.
func checkPaperOrder(simUs []float64) error {
	const (
		static = iota
		cgi
		fastcgi
		libcgi
		prot
	)
	order := []int{cgi, fastcgi, prot, libcgi, static}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if !(simUs[a] > simUs[b]) {
			return fmt.Errorf("simulated time %s=%.3fus not above %s=%.3fus",
				modelNames[a], simUs[a], modelNames[b], simUs[b])
		}
	}
	if over := simUs[prot]/simUs[libcgi] - 1; over >= 0.03 {
		return fmt.Errorf("protected LibCGI costs %.2f%% over unprotected, want < 3%%", 100*over)
	}
	return nil
}
