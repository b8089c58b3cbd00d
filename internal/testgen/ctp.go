package testgen

import (
	"fmt"
	"sort"

	"reramtest/internal/dataset"
	"reramtest/internal/engine"
	"reramtest/internal/nn"
	"reramtest/internal/tensor"
)

// SelectCTP picks the paper's "corner data" test patterns from pool: the m
// images whose output logit vectors have the smallest standard deviation
// under net (§III-A). A flat logit vector means the input sits at a similar
// distance from every decision surface, so any weight error flips its class
// (or shifts its confidences) without directional bias.
//
// The paper's ideal needs only m = n (the class count) patterns, but because
// real inference sets rarely contain perfectly equidistant corner data it
// selects m ≥ n; the evaluation uses m = 50.
func SelectCTP(net *nn.Network, pool *dataset.Dataset, m int) *PatternSet {
	if m <= 0 || m > pool.N() {
		panic(fmt.Sprintf("testgen: SelectCTP needs 0 < m ≤ %d, got %d", pool.N(), m))
	}
	idx, _ := RankByLogitStd(net, pool)
	chosen := idx[:m]
	dim := pool.SampleDim()
	x := tensor.New(m, dim)
	labels := make([]int, m)
	xd, pd := x.Data(), pool.X.Data()
	for j, i := range chosen {
		copy(xd[j*dim:(j+1)*dim], pd[i*dim:(i+1)*dim])
		labels[j] = pool.Y[i]
	}
	return &PatternSet{Name: fmt.Sprintf("ctp-%s-%d", pool.Name, m), Method: "ctp", X: x, Labels: labels}
}

// RankByLogitStd scores every pool image by the standard deviation of its
// logit vector under net and returns sample indices sorted ascending (most
// "corner-like" first) together with the per-index scores in that order.
func RankByLogitStd(net *nn.Network, pool *dataset.Dataset) (idx []int, score []float64) {
	n := pool.N()
	dim := pool.SampleDim()
	scores := make([]float64, n)
	const batch = 64
	pd := pool.X.Data()
	// sweep the pool through a batch-inference plan: the whole scan reuses
	// one set of workspaces
	eng := engine.MustCompile(net, engine.Options{MaxBatch: batch})
	for s := 0; s < n; s += batch {
		e := s + batch
		if e > n {
			e = n
		}
		x := tensor.FromSlice(pd[s*dim:e*dim], e-s, dim)
		logits, _ := eng.ForwardBatch(nil, x) // e > s: never empty
		k := logits.Dim(1)
		ld := logits.Data()
		for j := 0; j < e-s; j++ {
			row := tensor.FromSlice(ld[j*k:(j+1)*k], k)
			scores[s+j] = row.Std()
		}
	}
	idx = make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	ordered := make([]float64, n)
	for j, i := range idx {
		ordered[j] = scores[i]
	}
	return idx, ordered
}

// SelectPlain picks the first m images of pool unchanged — the "original
// testing images" baseline the paper contrasts against in Fig. 8.
func SelectPlain(pool *dataset.Dataset, m int) *PatternSet {
	if m > pool.N() {
		m = pool.N()
	}
	dim := pool.SampleDim()
	x := tensor.New(m, dim)
	copy(x.Data(), pool.X.Data()[:m*dim])
	return &PatternSet{
		Name: fmt.Sprintf("plain-%s-%d", pool.Name, m), Method: "plain",
		X: x, Labels: append([]int(nil), pool.Y[:m]...),
	}
}
