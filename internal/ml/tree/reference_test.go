package tree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceBuild is exact greedy growth with a sort at every node: each
// node copies its rows and sorts them per candidate feature by the same
// (value, row) total order NewOrder uses. Build, which sorts each column
// once, must reproduce it bit for bit.
func referenceBuild(cfg Config, X [][]float64, g, h []float64, rows, features []int) *Node {
	return referenceGrow(cfg, X, g, h, slices.Clone(rows), features, 0)
}

func referenceGrow(cfg Config, X [][]float64, g, h []float64, rows, features []int, depth int) *Node {
	var G, H float64
	for _, i := range rows {
		G += g[i]
		H += h[i]
	}
	leaf := &Node{Feature: -1, Weight: -G / (H + cfg.Lambda)}
	if depth >= cfg.MaxDepth || len(rows) < cfg.MinSamplesSplit {
		return leaf
	}
	lam := cfg.Lambda
	parentScore := G * G / (H + lam)
	var best *Node
	order := make([]int, len(rows))
	for _, f := range features {
		copy(order, rows)
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(X[a][f], X[b][f]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		var GL, HL float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			GL += g[i]
			HL += h[i]
			v, next := X[i][f], X[order[k+1]][f]
			if v == next { // no split point between equal values
				continue
			}
			GR, HR := G-GL, H-HL
			if HL < cfg.MinChildWeight || HR < cfg.MinChildWeight {
				continue
			}
			gain := 0.5*(GL*GL/(HL+lam)+GR*GR/(HR+lam)-parentScore) - cfg.Gamma
			if gain <= 0 || (best != nil && gain <= best.Gain) {
				continue
			}
			mid := v + (next-v)/2
			if mid == v { // adjacent floats: fall back to next
				mid = next
			}
			best = &Node{Feature: f, Threshold: mid, Gain: gain}
		}
	}
	if best == nil {
		return leaf
	}
	var left, right []int
	for _, i := range rows {
		if X[i][best.Feature] < best.Threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return leaf
	}
	best.Left = referenceGrow(cfg, X, g, h, left, features, depth+1)
	best.Right = referenceGrow(cfg, X, g, h, right, features, depth+1)
	return best
}

// sameTree reports the first node, by path from the root, at which a and b
// differ in structure or in the bits of Feature, Threshold, Gain or Weight.
func sameTree(a, b *Node, path string) error {
	if a.Feature != b.Feature ||
		math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) ||
		math.Float64bits(a.Gain) != math.Float64bits(b.Gain) ||
		math.Float64bits(a.Weight) != math.Float64bits(b.Weight) {
		return fmt.Errorf("node %q: got {f%d t%v g%v w%v}, reference {f%d t%v g%v w%v}", path,
			a.Feature, a.Threshold, a.Gain, a.Weight, b.Feature, b.Threshold, b.Gain, b.Weight)
	}
	if a.IsLeaf() {
		return nil
	}
	if err := sameTree(a.Left, b.Left, path+"L"); err != nil {
		return err
	}
	return sameTree(a.Right, b.Right, path+"R")
}

// TestBuildMatchesReference checks Build bitwise, node by node, against the
// per-node-sort reference on tie-heavy random matrices: small integer values
// (so most thresholds sit between runs of equal values), rows in random
// order and sometimes repeated, random column subsets in random order, and
// varied depth and regularization.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		n, p := 1+rng.Intn(90), 1+rng.Intn(8)
		levels := 1 + rng.Intn(6)
		X := make([][]float64, n)
		for i := range X {
			X[i] = make([]float64, p)
			for f := range X[i] {
				X[i][f] = float64(rng.Intn(levels))
				if rng.Intn(10) == 0 {
					X[i][f] += rng.Float64()
				}
			}
		}
		g, h := make([]float64, n), make([]float64, n)
		unitHess := rng.Intn(2) == 0
		for i := range g {
			g[i] = rng.NormFloat64() * 10
			h[i] = 1
			if !unitHess {
				h[i] = 0.05 + rng.Float64()
			}
		}
		var rows []int
		if rng.Intn(4) == 0 { // bootstrap-style repeats
			for k := 0; k < n; k++ {
				rows = append(rows, rng.Intn(n))
			}
		} else {
			rows = rng.Perm(n)[:1+rng.Intn(n)]
		}
		features := rng.Perm(p)[:1+rng.Intn(p)]
		cfg := Config{
			MaxDepth:        rng.Intn(7),
			MinChildWeight:  []float64{0, 0.5, 1, 3}[rng.Intn(4)],
			Lambda:          []float64{0, 1, 2.5}[rng.Intn(3)],
			Gamma:           []float64{0, 0.1, 5}[rng.Intn(3)],
			MinSamplesSplit: []int{0, 2, 5}[rng.Intn(3)],
		}
		o, err := NewOrder(X)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Build(cfg, o, g, h, rows, features)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameTree(got, referenceBuild(cfg, X, g, h, rows, features), ""); err != nil {
			t.Fatalf("trial %d (n=%d p=%d rows=%d features=%v cfg=%+v): %v", trial, n, p, len(rows), features, cfg, err)
		}
	}
}
