package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// 1000 samples: rank 990 (1-based) leaves exactly ten beyond it.
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// 999 samples leave only nine beyond p99: no tail.
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported; want the median alone")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestSummarizeFallsBackToMedian(t *testing.T) {
	s := summarize(seq(40), 0.99)
	if !s.tailIsMedian || s.tail != s.p50 || s.p50 != 20.5 || s.n != 40 {
		t.Errorf("summarize(1..40) = %+v; want the median 20.5 as the tail", s)
	}
	s = summarize(seq(2000), 0.99)
	if s.tailIsMedian || s.tail != 1980 || s.p50 != 1000.5 {
		t.Errorf("summarize(1..2000) = %+v; want p50 1000.5, p99 1980", s)
	}
}
