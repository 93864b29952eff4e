package main

import (
	"fmt"
	"testing"

	"repro/internal/webserver"
)

func TestReferencesMatchFreshClonesExactly(t *testing.T) {
	refs, err := bootReferences(fileSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPaperOrder(func() []float64 {
		v := make([]float64, len(refs))
		for i, r := range refs {
			v[i] = r.simUs
		}
		return v
	}()); err != nil {
		t.Errorf("references break the paper's order: %v", err)
	}
	tmpl, err := webserver.BootServer(fileSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range modelOf {
		c, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		c0 := c.SimCycles()
		if _, err := c.ServeRequest(m); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%.3f", c.S.Clock().Micros(c.SimCycles()-c0))
		if got != refs[i].simHeader() {
			t.Errorf("%s on a fresh clone: %s, reference %s", modelNames[i], got, refs[i].simHeader())
		}
	}
}

// A long-lived machine's history moves a model's simulated time by a
// few tens of cycles: an exact check would fail where the tolerance
// holds.
func TestSharedMachineHistoryNeedsTolerance(t *testing.T) {
	refs, err := bootReferences(fileSize)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := webserver.BootServer(fileSize)
	if err != nil {
		t.Fatal(err)
	}
	inexact := map[string]bool{}
	for _, i := range []int{4, 3, 1, 3, 4, 0, 3, 2, 3, 4, 3} {
		c0 := srv.SimCycles()
		if _, err := srv.ServeRequest(modelOf[i]); err != nil {
			t.Fatal(err)
		}
		us := srv.S.Clock().Micros(srv.SimCycles() - c0)
		if !refs[i].withinShared(us) {
			t.Errorf("%s at %.3fus is not within tolerance of %.3fus", modelNames[i], us, refs[i].simUs)
		}
		if fmt.Sprintf("%.3f", us) != refs[i].simHeader() {
			inexact[modelNames[i]] = true
		}
	}
	if !inexact["libcgi"] || !inexact["libcgi-prot"] {
		t.Errorf("history moved only %v; libcgi and libcgi-prot should both differ from a fresh server", inexact)
	}
	if refs[3].withinShared(refs[3].simUs * 1.002) {
		t.Error("a 0.2% deviation passed the shared-machine check")
	}
}

func TestPaperOrderRejectsSwaps(t *testing.T) {
	good := []float64{2323.5, 10410.5, 5385.5, 2380.9, 2429.9}
	if err := checkPaperOrder(good); err != nil {
		t.Fatalf("Table 3 order rejected: %v", err)
	}
	swapped := append([]float64(nil), good...)
	swapped[1], swapped[2] = swapped[2], swapped[1] // fastcgi above cgi
	if checkPaperOrder(swapped) == nil {
		t.Error("cgi below fastcgi passed")
	}
	costly := append([]float64(nil), good...)
	costly[4] = costly[3] * 1.05 // protection costing 5%
	if checkPaperOrder(costly) == nil {
		t.Error("protected LibCGI 5% over unprotected passed")
	}
}
