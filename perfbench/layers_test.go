package main

import (
	"testing"
	"time"
)

func TestCoveredMergesOverlappingSpans(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{at(10), at(20)}, // overlaps the next: [5, 20)
		{at(5), at(15)},
		{at(30), at(40)}, // disjoint
		{at(32), at(35)}, // nested
	}
	if got, want := covered(spans), 25*time.Millisecond; got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %v, want 0", got)
	}
}
