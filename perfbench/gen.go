package main

import (
	"fmt"
	"math"
	"math/rand"

	"omnireduce/internal/sparsity"
)

// genStats reports how close a generated input set came to its profile's
// block-structure targets.
type genStats struct {
	TargetBlockDensity   float64 // 1 - Profile.BlockSparsity(bs)
	TargetUnionDensity   float64 // target block density x Profile.UnionFactor(workers)
	AchievedBlockDensity float64 // mean per-worker fraction of non-zero blocks
	AchievedUnionDensity float64 // fraction of blocks non-zero at any worker
}

// generate builds one gradient bucket per worker with the profile's block
// structure at block size bs: each worker has a (1-BlockSparsity(bs))
// share of non-zero blocks, and the union across workers covers that
// share times UnionFactor(workers). Only two workers are supported, where
// the overlap is fully set by those two numbers: shared = 2*perWorker -
// union, and the rest of each worker's blocks are its own.
//
// Inside a non-zero block each element is non-zero with the profile's
// element density scaled to the non-zero blocks, and at least one element
// is non-zero, so the block is never mistaken for a zero block.
func generate(p *sparsity.Profile, elems, bs, workers int, seed int64) ([][]float32, genStats, error) {
	if workers != 2 {
		return nil, genStats{}, fmt.Errorf("generator supports 2 workers, got %d", workers)
	}
	rng := rand.New(rand.NewSource(seed))
	nb := (elems + bs - 1) / bs
	d := 1 - p.BlockSparsity(bs)
	u := math.Min(1, d*p.UnionFactor(workers))
	st := genStats{TargetBlockDensity: d, TargetUnionDensity: u}

	per := int(math.Round(d * float64(nb)))
	union := int(math.Round(u * float64(nb)))
	if per < 1 {
		per = 1
	}
	union = min(max(union, per), nb, 2*per)
	shared := 2*per - union
	own := per - shared

	inElem := 1.0
	if d > 0 {
		inElem = math.Min(1, (1-p.ElementSparsity())/d)
	}
	inputs := make([][]float32, workers)
	for w := range inputs {
		inputs[w] = make([]float32, elems)
	}
	perm := rng.Perm(nb)
	fill := func(w, b int) {
		lo := b * bs
		hi := min(lo+bs, elems)
		blk := inputs[w][lo:hi]
		for i := range blk {
			if inElem >= 1 || rng.Float64() < inElem {
				blk[i] = nonZero(rng)
			}
		}
		if i := rng.Intn(len(blk)); blk[i] == 0 {
			blk[i] = nonZero(rng)
		}
	}
	for _, b := range perm[:shared] {
		fill(0, b)
		fill(1, b)
	}
	for _, b := range perm[shared : shared+own] {
		fill(0, b)
	}
	for _, b := range perm[shared+own : shared+2*own] {
		fill(1, b)
	}
	st.AchievedBlockDensity, st.AchievedUnionDensity = blockDensity(inputs, bs)
	return inputs, st, nil
}

// nonZero draws a standard normal value that is never exactly zero.
func nonZero(rng *rand.Rand) float32 {
	if v := float32(rng.NormFloat64()); v != 0 {
		return v
	}
	return 1e-6
}

// blockDensity measures the mean per-worker and the union fraction of
// blocks holding any non-zero element.
func blockDensity(inputs [][]float32, bs int) (perWorker, union float64) {
	n := len(inputs[0])
	nb := (n + bs - 1) / bs
	var sum, any int
	for b := 0; b < nb; b++ {
		lo, hi := b*bs, min(b*bs+bs, n)
		hit := false
		for _, in := range inputs {
			for _, v := range in[lo:hi] {
				if v != 0 {
					sum++
					hit = true
					break
				}
			}
		}
		if hit {
			any++
		}
	}
	return float64(sum) / float64(nb*len(inputs)), float64(any) / float64(nb)
}

// referenceSum is the float64 element-wise sum of the inputs, rounded once
// to float32: the value a correct reduction must match within tolerance.
func referenceSum(inputs [][]float32) []float32 {
	ref := make([]float32, len(inputs[0]))
	for i := range ref {
		var s float64
		for _, in := range inputs {
			s += float64(in[i])
		}
		ref[i] = float32(s)
	}
	return ref
}
