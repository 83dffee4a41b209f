// Package tree implements the regularized Newton regression tree that
// underlies the framework's XGBoost-style booster (paper §3.2.2, citing Chen
// & Guestrin). A tree is grown by exact greedy split search on per-instance
// first and second loss derivatives (g, h); each leaf takes the closed-form
// weight w* = -G/(H+λ) and each split must improve the regularized objective
// by more than γ.
//
// Exact search follows XGBoost's column blocks: NewOrder sorts every
// column's row indices once per fit into a total order, by value and then by
// row index, and Build reuses those orders for every tree. The root filters
// each column's order to the tree's rows, each node scans one contiguous
// segment per feature, and a split stably partitions every segment into its
// children's ranges, so no node sorts. Leaf sums run over the node's rows in
// the order Build was given them, partitioned stably by each split.
//
// Fitting a single tree with g_i = -y_i and h_i = 1 reproduces a classical
// CART regression tree (leaf = mean target, variance-reduction splits), which
// is how the package doubles as a standalone tree learner.
package tree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Config controls tree growth.
type Config struct {
	// MaxDepth limits tree depth; depth 0 means a single leaf.
	MaxDepth int
	// MinChildWeight is the minimum hessian sum per child (XGBoost's
	// min_child_weight); splits creating lighter children are rejected.
	MinChildWeight float64
	// Lambda is the L2 regularization on leaf weights.
	Lambda float64
	// Gamma is the minimum split gain (complexity penalty per leaf).
	Gamma float64
	// MinSamplesSplit rejects splitting nodes with fewer rows.
	MinSamplesSplit int
}

// DefaultConfig mirrors common XGBoost defaults.
func DefaultConfig() Config {
	return Config{
		MaxDepth:        6,
		MinChildWeight:  1,
		Lambda:          1,
		Gamma:           0,
		MinSamplesSplit: 2,
	}
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.MaxDepth < 0 {
		return fmt.Errorf("tree: max depth %d < 0", c.MaxDepth)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("tree: lambda %f < 0", c.Lambda)
	}
	if c.Gamma < 0 {
		return fmt.Errorf("tree: gamma %f < 0", c.Gamma)
	}
	if c.MinChildWeight < 0 {
		return fmt.Errorf("tree: min child weight %f < 0", c.MinChildWeight)
	}
	return nil
}

// Node is one tree node. Leaves have Feature == -1.
type Node struct {
	// Feature is the split column, or -1 for a leaf.
	Feature int
	// Threshold: rows with x[Feature] < Threshold go left.
	Threshold float64
	// Weight is the leaf output value (only meaningful for leaves).
	Weight float64
	// Gain is the split's objective improvement (internal nodes).
	Gain        float64
	Left, Right *Node
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.Feature < 0 }

// Predict routes x to a leaf and returns its weight.
func (n *Node) Predict(x []float64) float64 { return n.LeafFor(x).Weight }

// LeafFor routes x to its leaf node (useful for per-leaf re-estimation).
func (n *Node) LeafFor(x []float64) *Node {
	for !n.IsLeaf() {
		if x[n.Feature] < n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// NumLeaves counts leaves.
func (n *Node) NumLeaves() int {
	if n.IsLeaf() {
		return 1
	}
	return n.Left.NumLeaves() + n.Right.NumLeaves()
}

// Depth returns the height of the tree (a lone leaf has depth 0).
func (n *Node) Depth() int {
	if n.IsLeaf() {
		return 0
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// AccumImportances adds each split's gain to imp[feature]; imp must have one
// entry per feature column.
func (n *Node) AccumImportances(imp []float64) {
	if n.IsLeaf() {
		return
	}
	imp[n.Feature] += n.Gain
	n.Left.AccumImportances(imp)
	n.Right.AccumImportances(imp)
}

// Order is the exact method's presorted design matrix, the twin of Binner:
// for every column, the row indices sorted once by value, ties broken by row
// index. It is immutable after construction and safe to share across trees
// and goroutines.
type Order struct {
	// cols[f][i] is X[i][f]: a column-major copy, so a scan reads one column.
	cols [][]float64
	// sorted[f] holds every row index in ascending (cols[f][i], i) order.
	sorted [][]int32
}

// NewOrder sorts every column of the row-major matrix X once. X must hold no
// NaN: a NaN has no place in a sorted column (gbt.Fit refuses non-finite
// training data before it gets here).
func NewOrder(X [][]float64) (*Order, error) {
	if len(X) == 0 || len(X[0]) == 0 {
		return nil, fmt.Errorf("tree: empty design matrix")
	}
	if len(X) > math.MaxInt32 {
		return nil, fmt.Errorf("tree: %d rows exceed the int32 row index", len(X))
	}
	n, p := len(X), len(X[0])
	o := &Order{cols: make([][]float64, p), sorted: make([][]int32, p)}
	for f := 0; f < p; f++ {
		col := make([]float64, n)
		idx := make([]int32, n)
		for i, row := range X {
			col[i] = row[f]
			idx[i] = int32(i)
		}
		slices.SortFunc(idx, func(a, b int32) int {
			if c := cmp.Compare(col[a], col[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		o.cols[f], o.sorted[f] = col, idx
	}
	return o, nil
}

// Build grows a tree on rows (indices into the matrix o was built from, in
// any order, repeats allowed) using gradients g and hessians h. features
// lists the candidate split columns (column sampling is the caller's
// concern).
func Build(cfg Config, o *Order, g, h []float64, rows, features []int) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if o == nil {
		return nil, fmt.Errorf("tree: nil order")
	}
	n := len(o.cols[0])
	if len(g) != n || len(h) != n {
		return nil, fmt.Errorf("tree: %d rows but %d gradients / %d hessians", n, len(g), len(h))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("tree: no training rows")
	}
	for _, f := range features {
		if f < 0 || f >= len(o.cols) {
			return nil, fmt.Errorf("tree: feature %d outside [0,%d)", f, len(o.cols))
		}
	}
	b := &builder{
		cfg: cfg, o: o, g: g, h: h, features: features,
		rows: make([]int32, len(rows)),
		segs: make([][]int32, len(features)),
		left: make([]bool, n),
		tmp:  make([]int32, len(rows)),
	}
	// mult[i] counts row i's repeats in rows; each column's order keeps a
	// row as often as rows names it.
	mult := make([]int32, n)
	for k, i := range rows {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("tree: row %d outside [0,%d)", i, n)
		}
		mult[i]++
		b.rows[k] = int32(i)
	}
	flat := make([]int32, len(features)*len(rows))
	for k, f := range features {
		seg := flat[k*len(rows) : k*len(rows) : (k+1)*len(rows)]
		for _, i := range o.sorted[f] {
			for c := mult[i]; c > 0; c-- {
				seg = append(seg, i)
			}
		}
		b.segs[k] = seg
	}
	return b.grow(0, len(rows), 0), nil
}

// builder grows one tree. A node owns the range [lo, hi) of rows and of
// every segment: rows holds its rows in the caller's order, segs[k] the same
// rows in features[k]'s sorted order.
type builder struct {
	cfg      Config
	o        *Order
	g, h     []float64
	features []int
	rows     []int32
	segs     [][]int32
	// left[i] marks row i for the left child of the split being applied.
	left []bool
	// tmp is the stable partition's scratch for right-child rows.
	tmp []int32
}

// leaf computes the closed-form optimal weight -G/(H+λ).
func (b *builder) leaf(G, H float64) *Node {
	return &Node{Feature: -1, Weight: -G / (H + b.cfg.Lambda)}
}

func (b *builder) grow(lo, hi, depth int) *Node {
	var G, H float64
	for _, i := range b.rows[lo:hi] {
		G += b.g[i]
		H += b.h[i]
	}
	if depth >= b.cfg.MaxDepth || hi-lo < b.cfg.MinSamplesSplit {
		return b.leaf(G, H)
	}
	n := b.bestSplit(lo, hi, G, H)
	if n == nil {
		return b.leaf(G, H)
	}
	// Children at the depth limit are leaves and read only rows.
	mid := b.partition(lo, hi, n, depth+1 < b.cfg.MaxDepth)
	if mid == lo || mid == hi {
		return b.leaf(G, H)
	}
	n.Left = b.grow(lo, mid, depth+1)
	n.Right = b.grow(mid, hi, depth+1)
	return n
}

// bestSplit performs exact greedy search over every candidate feature and
// threshold of the node [lo, hi), maximizing the regularized gain
//
//	½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ.
//
// It returns the winning split as an internal node without children, or nil
// when no split clears the gain/weight constraints.
func (b *builder) bestSplit(lo, hi int, G, H float64) *Node {
	lam := b.cfg.Lambda
	parentScore := G * G / (H + lam)
	var best *Node
	for k, f := range b.features {
		seg := b.segs[k][lo:hi]
		col := b.o.cols[f]
		var GL, HL float64
		for j := 0; j < len(seg)-1; j++ {
			i := seg[j]
			GL += b.g[i]
			HL += b.h[i]
			v, next := col[i], col[seg[j+1]]
			if v == next { //lint:ignore floateq duplicate sorted feature values admit no split point between them
				continue // can't split between equal values
			}
			GR, HR := G-GL, H-HL
			if HL < b.cfg.MinChildWeight || HR < b.cfg.MinChildWeight {
				continue
			}
			gain := 0.5*(GL*GL/(HL+lam)+GR*GR/(HR+lam)-parentScore) - b.cfg.Gamma
			if gain <= 0 {
				continue
			}
			if best == nil || gain > best.Gain {
				mid := v + (next-v)/2
				//lint:ignore floateq adjacent floats: the midpoint rounds back onto v exactly
				if mid == v { // adjacent floats: fall back to next
					mid = next
				}
				if best == nil {
					best = &Node{}
				}
				best.Feature, best.Threshold, best.Gain = f, mid, gain
			}
		}
	}
	return best
}

// partition applies split s to the node [lo, hi): rows with value below the
// threshold move to the front of rows and, when segs is set, of every
// segment, each side keeping its order. It returns the boundary.
func (b *builder) partition(lo, hi int, s *Node, segs bool) int {
	col := b.o.cols[s.Feature]
	for _, i := range b.rows[lo:hi] {
		b.left[i] = col[i] < s.Threshold
	}
	mid := lo + b.stablePartition(b.rows[lo:hi])
	if segs {
		for _, seg := range b.segs {
			b.stablePartition(seg[lo:hi])
		}
	}
	return mid
}

// stablePartition moves the rows marked left to the front of xs, keeping
// the order within each side, and returns how many there are.
func (b *builder) stablePartition(xs []int32) int {
	nl, nr := 0, 0
	for _, i := range xs {
		if b.left[i] {
			xs[nl] = i
			nl++
		} else {
			b.tmp[nr] = i
			nr++
		}
	}
	copy(xs[nl:], b.tmp[:nr])
	return nl
}
