package tree

import (
	"fmt"
	"math"
	"sort"
)

// Histogram-based split finding, the "approx/hist" tree method of XGBoost
// and LightGBM: feature values are pre-bucketed into quantile bins once per
// dataset, and each node scans per-bin gradient sums instead of every
// distinct value of its presorted rows. A node evaluates at most bins
// candidate thresholds per feature and keeps no per-feature row orders to
// partition, which is what makes boosting affordable on the x-fold-scaled
// RCC workloads.

// MaxHistBins bounds the per-feature bin count (bin ids are stored in a
// byte).
const MaxHistBins = 256

// Binner holds the quantile bin edges and the pre-binned design matrix.
// It is immutable after construction and safe to share across trees and
// goroutines.
type Binner struct {
	// edges[f] are ascending split candidates for feature f: bin b holds
	// values in (edges[b-1], edges[b]]; the last bin is unbounded.
	edges [][]float64
	// binned[i][f] is the bin index of X[i][f].
	binned [][]uint8
	cols   int
}

// NewBinner buckets every feature of X into at most maxBins quantile bins.
func NewBinner(X [][]float64, maxBins int) (*Binner, error) {
	if maxBins < 2 || maxBins > MaxHistBins {
		return nil, fmt.Errorf("tree: bins %d outside [2,%d]", maxBins, MaxHistBins)
	}
	if len(X) == 0 || len(X[0]) == 0 {
		return nil, fmt.Errorf("tree: empty design matrix")
	}
	n, p := len(X), len(X[0])
	b := &Binner{edges: make([][]float64, p), cols: p}
	vals := make([]float64, n)
	for f := 0; f < p; f++ {
		for i := range X {
			vals[i] = X[i][f]
		}
		sort.Float64s(vals)
		// Quantile candidates, deduplicated.
		var edges []float64
		for k := 1; k < maxBins; k++ {
			q := vals[k*(n-1)/maxBins]
			if len(edges) == 0 || q > edges[len(edges)-1] {
				edges = append(edges, q)
			}
		}
		b.edges[f] = edges
	}
	b.binned = make([][]uint8, n)
	for i := range X {
		row := make([]uint8, p)
		for f := 0; f < p; f++ {
			row[f] = uint8(b.binOf(f, X[i][f]))
		}
		b.binned[i] = row
	}
	return b, nil
}

// binOf locates the bin of value v for feature f: the first edge >= v, or
// the overflow bin.
func (b *Binner) binOf(f int, v float64) int {
	edges := b.edges[f]
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// NumBins reports the bin count of feature f (edges + overflow).
func (b *Binner) NumBins(f int) int { return len(b.edges[f]) + 1 }

// BuildHist grows a tree like Build but finds splits over the Binner's
// histogram buckets. Thresholds are real values (bin upper edges), so the
// resulting tree predicts on raw feature vectors exactly like an exact tree.
func BuildHist(cfg Config, b *Binner, g, h []float64, rows, features []int) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("tree: nil binner")
	}
	if len(g) != len(b.binned) || len(h) != len(b.binned) {
		return nil, fmt.Errorf("tree: %d binned rows but %d gradients / %d hessians", len(b.binned), len(g), len(h))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("tree: no training rows")
	}
	hb := &histBuilder{cfg: cfg, b: b, g: g, h: h, features: features}
	return hb.grow(append([]int(nil), rows...), 0), nil
}

type histBuilder struct {
	cfg      Config
	b        *Binner
	g, h     []float64
	features []int
}

func (hb *histBuilder) leaf(G, H float64) *Node {
	return &Node{Feature: -1, Weight: -G / (H + hb.cfg.Lambda)}
}

func (hb *histBuilder) grow(rows []int, depth int) *Node {
	var G, H float64
	for _, i := range rows {
		G += hb.g[i]
		H += hb.h[i]
	}
	if depth >= hb.cfg.MaxDepth || len(rows) < hb.cfg.MinSamplesSplit {
		return hb.leaf(G, H)
	}
	feature, bin, gain := hb.bestSplit(rows, G, H)
	if feature < 0 {
		return hb.leaf(G, H)
	}
	n := &Node{
		Feature: feature,
		// Split at the bin's upper edge: rows with value < edge go left
		// together with every lower bin. Using nextafter keeps the exact
		// edge value itself in the left branch, matching the bin
		// semantics (v <= edge).
		Threshold: math.Nextafter(hb.b.edges[feature][bin], math.Inf(1)),
		Gain:      gain,
	}
	var left, right []int
	for _, i := range rows {
		if int(hb.b.binned[i][feature]) <= bin {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return hb.leaf(G, H)
	}
	n.Left = hb.grow(left, depth+1)
	n.Right = hb.grow(right, depth+1)
	return n
}

// bestSplit scans per-feature histograms. It returns feature -1 when no
// split clears the gain/weight constraints.
func (hb *histBuilder) bestSplit(rows []int, G, H float64) (feature, bin int, gain float64) {
	lam := hb.cfg.Lambda
	parentScore := G * G / (H + lam)
	feature = -1
	var sumG [MaxHistBins]float64
	var sumH [MaxHistBins]float64
	var cnt [MaxHistBins]int
	for _, f := range hb.features {
		nb := hb.b.NumBins(f)
		if nb < 2 {
			continue
		}
		for b := 0; b < nb; b++ {
			sumG[b], sumH[b], cnt[b] = 0, 0, 0
		}
		for _, i := range rows {
			b := hb.b.binned[i][f]
			sumG[b] += hb.g[i]
			sumH[b] += hb.h[i]
			cnt[b]++
		}
		var GL, HL float64
		cntL := 0
		for b := 0; b < nb-1; b++ {
			GL += sumG[b]
			HL += sumH[b]
			cntL += cnt[b]
			// Both children must be non-empty: a boundary with all rows
			// on one side is not a split (and divides by zero at λ = 0).
			if cntL == 0 || cntL == len(rows) {
				continue
			}
			GR, HR := G-GL, H-HL
			if HL < hb.cfg.MinChildWeight || HR < hb.cfg.MinChildWeight {
				continue
			}
			cand := 0.5*(GL*GL/(HL+lam)+GR*GR/(HR+lam)-parentScore) - hb.cfg.Gamma
			if cand <= 0 {
				continue
			}
			if feature < 0 || cand > gain {
				feature, bin, gain = f, b, cand
			}
		}
	}
	return feature, bin, gain
}
