package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestDigestPinned(t *testing.T) {
	rs := []placed{
		{Model: "CNN-L", Best: 295784.1515154316, Fingerprint: "r0+4:0,0,4x4!|n0@64:0"},
		{Model: "colo/MLP-S", Best: 1.5, Fingerprint: "r0+1:0,0,4x2!|n0@98:0,1"},
	}
	const want = "3d4fb16068b7d371" // sha256sum of the two lines, first 8 bytes
	if got := digest(rs); got != want {
		t.Errorf("digest = %s, want %s (the format is pinned: recorded digests depend on it)", got, want)
	}
}

func TestDigestSensitivity(t *testing.T) {
	a := []placed{{Model: "A", Best: 1, Fingerprint: "x"}, {Model: "B", Best: 2, Fingerprint: "y"}}
	base := digest(a)
	nudged := []placed{{Model: "A", Best: math.Nextafter(1, 2), Fingerprint: "x"}, a[1]}
	swapped := []placed{a[1], a[0]}
	moved := []placed{a[0], {Model: "B", Best: 2, Fingerprint: "z"}}
	for name, rs := range map[string][]placed{"objective by one ulp": nudged, "order": swapped, "fingerprint": moved} {
		if digest(rs) == base {
			t.Errorf("changing the %s left the digest unchanged", name)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/search_digests.json from the current search placer")

// TestSearchDigests runs one search cycle per recorded seed and checks
// the digest, and that the co-location loop equals eval.SearchCoLocate.
// With -update it records the digests instead.
func TestSearchDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 search cycles")
	}
	sm, err := synthSearchModels()
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]string{}
	for s := int64(1); s <= goldenSeeds; s++ {
		cs, err := searchCycle(sm, s, s%2 == 0) // half traced: same layouts either way
		if err != nil {
			t.Fatal(err)
		}
		got[s] = digest(cs.placed)
		colo, err := coLocateDigest(s)
		if err != nil {
			t.Fatal(err)
		}
		if colo != digest(cs.placed[len(searchSingles):]) {
			t.Errorf("seed %d: co-location loop differs from eval.SearchCoLocate", s)
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/search_digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := goldenDigests()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("search digests changed:\n got %v\nwant %v", got, want)
	}
}
