package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
)

// placed is the outcome of one model's placement search: what the
// search digest is made of.
type placed struct {
	Model       string
	Best        float64 // objective of the returned layout
	Fingerprint string  // compiler.Placement.Fingerprint()
}

// digest condenses a cycle of searches into 16 hex digits: a SHA-256
// over one "model<TAB>best<TAB>fingerprint" line per search, in order,
// with the objective printed in its shortest exact form. Two cycles
// that return the same layouts with bit-identical objectives have
// equal digests; any other difference changes it.
func digest(rs []placed) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.Model)
		b.WriteByte('\t')
		b.WriteString(strconv.FormatFloat(r.Best, 'g', -1, 64))
		b.WriteByte('\t')
		b.WriteString(r.Fingerprint)
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}
