//go:build !amd64

package core

// Stub for the amd64-only vector path; unreachable because hasAVX2FMA is
// constant false on other architectures (the compiler drops the branch).
func (s *BornSolver) evalBornNearRangeVec(near []NodePair, sAtom []float64) {
	panic("core: vector kernel dispatched without AVX2 support")
}

// Stub for the amd64-only row-batched vector path; likewise unreachable.
func (s *BornSolver) evalBornRowBlocksVec(alo, lo, hi int32, qLeaves []int32, out []float64) {
	panic("core: vector kernel dispatched without AVX2 support")
}

// Stub for the amd64-only far-field vector path; likewise unreachable.
func (s *BornSolver) evalBornFarRangeVec(far []NodePair, sNode []float64) {
	panic("core: vector kernel dispatched without AVX2 support")
}

// Stub for the amd64-only energy near-field vector path; likewise
// unreachable.
func (s *EpolSolver) evalEpolNearRangeVec(near []NodePair, symmetric bool) float64 {
	panic("core: vector kernel dispatched without AVX2 support")
}

// Stub for the amd64-only batched entry-value vector path; likewise
// unreachable.
func (s *EpolSolver) evalEpolNearEntryValuesVec(near []NodePair, idxs []int32, out []float64) {
	panic("core: vector kernel dispatched without AVX2 support")
}

// Stubs for the amd64-only energy far-field vector paths; likewise
// unreachable.
func (s *EpolSolver) evalEpolFarVec(far []NodePair) float64 {
	panic("core: vector kernel dispatched without AVX2 support")
}

func (s *EpolSolver) evalEpolFarNodesVec(us []int32, v int32) float64 {
	panic("core: vector kernel dispatched without AVX2 support")
}
