package model

import (
	"math"
	"testing"

	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
)

// TestChipShareSiblingPermutationInvariance: Eq. 3 sums sibling
// utilizations, so the share must not depend on the order in which the
// cores slice enumerates the siblings (the kernel rebuilds that slice in
// different orders across configurations). Every machine spec is covered,
// so on the multi-chip ones a permuted slice interleaves other chips'
// cores with the siblings, and the share must still count only same-chip
// siblings. Tolerance 1e-12 allows only float summation reordering.
func TestChipShareSiblingPermutationInvariance(t *testing.T) {
	for _, spec := range cpu.Specs() {
		rng := sim.NewRand(11)
		for trial := 0; trial < 200; trial++ {
			cores := make([]*cpu.Core, spec.Cores())
			for i := range cores {
				cores[i] = cpu.NewCore(i, spec)
				cores[i].LastUtil = 2*rng.Float64() - 0.5 // includes out-of-range samples
			}
			self := rng.Intn(spec.Cores())
			myUtil := rng.Float64()
			if myUtil == 0 {
				myUtil = 0.5
			}

			base := ChipShare(spec, cores, self, myUtil, nil)
			if base <= 0 || base > myUtil+1e-12 || base > 1+1e-12 {
				t.Fatalf("%s trial %d: share %v outside (0, min(1, myUtil %v)]", spec.Name, trial, base, myUtil)
			}
			// Eq. 3 over the same-chip siblings only, in core-id order.
			var siblings float64
			for c := spec.ChipOf(self) * spec.CoresPerChip; c < (spec.ChipOf(self)+1)*spec.CoresPerChip; c++ {
				if c != self {
					siblings += math.Max(0, math.Min(1, cores[c].LastUtil))
				}
			}
			if want := myUtil / (1 + siblings); math.Abs(base-want) > 1e-12 {
				t.Fatalf("%s trial %d: share %v, want %v from same-chip siblings only", spec.Name, trial, base, want)
			}
			perm := make([]*cpu.Core, len(cores))
			for i, j := range rng.Perm(len(cores)) {
				perm[i] = cores[j]
			}
			got := ChipShare(spec, perm, self, myUtil, nil)
			if math.Abs(got-base) > 1e-12 {
				t.Fatalf("%s trial %d: share changed under permutation: %v vs %v", spec.Name, trial, got, base)
			}
		}
	}
}

// TestChipShareBusySiblingsBound: with k fully busy cores on a chip each
// core's share is exactly 1/k of its utilization denominator — the
// paper's "with k fully-busy cores each gets ≈1/k" sanity case — and an
// all-idle chip attributes the whole maintenance power to the one busy
// core.
func TestChipShareBusySiblingsBound(t *testing.T) {
	spec := cpu.Westmere
	cores := make([]*cpu.Core, spec.Cores())
	for i := range cores {
		cores[i] = cpu.NewCore(i, spec)
		cores[i].LastUtil = 1
	}
	got := ChipShare(spec, cores, 0, 1, nil)
	want := 1 / float64(spec.CoresPerChip)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("fully busy chip: share %v, want %v", got, want)
	}

	for i := range cores {
		cores[i].LastUtil = 0
	}
	if got := ChipShare(spec, cores, 0, 1, nil); got != 1 {
		t.Fatalf("lone busy core: share %v, want 1", got)
	}
	if got := ChipShare(spec, cores, 0, 0, nil); got != 0 {
		t.Fatalf("idle core: share %v, want 0", got)
	}
}
