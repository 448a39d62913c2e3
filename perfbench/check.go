package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"prop"
)

// verify recounts a reported partition from scratch with prop.Verify: the
// sides must satisfy the balance criterion of o and the recounted cut must
// equal the reported one.
func verify(n *prop.Netlist, sides []uint8, reportedCut float64, o prop.Options) error {
	if len(sides) != n.NumNodes() {
		return fmt.Errorf("%d sides for %d nodes", len(sides), n.NumNodes())
	}
	cut, _, err := prop.Verify(n, sides, o)
	if err != nil {
		return err
	}
	if math.Abs(cut-reportedCut) > 1e-9*math.Max(1, math.Abs(cut)) {
		return fmt.Errorf("reported cut %v, recount %v", reportedCut, cut)
	}
	return nil
}

// sidesHash fingerprints a side assignment for the determinism checks.
func sidesHash(sides []uint8) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(sides) // hash.Hash writes never fail
	return h.Sum64()
}

// intSides converts the JSON 0/1 array the server sends back to sides,
// rejecting anything but 0 and 1.
func intSides(xs []int) ([]uint8, error) {
	out := make([]uint8, len(xs))
	for i, x := range xs {
		if x != 0 && x != 1 {
			return nil, fmt.Errorf("side %d of node %d", x, i)
		}
		out[i] = uint8(x)
	}
	return out, nil
}

// outcome is one checked result: its cut and its side hash.
type outcome struct {
	Key  string  `json:"key"`
	Cut  float64 `json:"cut"`
	Hash uint64  `json:"hash"`
}

// sameOutcomes reports the first difference between two runs of the same
// calls, which must agree bit for bit.
func sameOutcomes(a, b []outcome) error {
	if len(a) != len(b) {
		return fmt.Errorf("determinism: %d results vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("determinism: %s gave cut %v hash %x, then cut %v hash %x",
				a[i].Key, a[i].Cut, a[i].Hash, b[i].Cut, b[i].Hash)
		}
	}
	return nil
}

// digest folds a list of outcomes into one hash, recorded per run so two
// runs with the same seed can be compared.
func digest(os []outcome) uint64 {
	h := fnv.New64a()
	for _, o := range os {
		fmt.Fprintf(h, "%s %v %x\n", o.Key, o.Cut, o.Hash)
	}
	return h.Sum64()
}
