package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// quickAllDigest is the SHA-256 of `rekeybench -exp all -quick -seed 1`
// with the timing-dependent parts removed: every "# <id> finished in"
// line, and the whole A-CAP figure, whose header and rows are derived
// from sign/wrap/parity costs measured on the running host. Reproduce
// it from the command line with
//
//	go run ./cmd/rekeybench -exp all -quick -seed 1 |
//	  awk '/^## A-CAP /{skip=1} skip && /^# .* finished in /{skip=0} !skip' |
//	  grep -v ' finished in ' | sha256sum
//
// Everything else the experiments print is a pure function of the seed
// (and independent of GOMAXPROCS), so a refactor of the transport, key
// tree or FEC layers that moves any simulated number fails here.
const quickAllDigest = "5df4906904bd33fdd9a94f83c231bf87d641fb36ab0380f39cb8c059034228de"

func TestQuickAllDigest(t *testing.T) {
	h := sha256.New()
	opts := Options{Seed: 1, Quick: true}
	for _, e := range All() {
		fmt.Fprintf(h, "# %s — regenerates %s\n# %s\n", e.ID, e.Paper, e.Desc)
		figs, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, f := range figs {
			if f.ID == "A-CAP" {
				continue
			}
			if err := Fprint(h, f); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintln(h)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != quickAllDigest {
		t.Fatalf("-exp all -quick -seed 1 digest = %s, want %s: a simulated result moved", got, quickAllDigest)
	}
}
