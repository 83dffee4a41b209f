// Package gbt implements the eXtreme Gradient Boosting regressor used as the
// framework's primary base model (paper §3.2.2 / §5.2, citing XGBoost):
// second-order (Newton) gradient boosting of regularized regression trees
// with shrinkage, row subsampling and column subsampling. Any loss from
// package loss may drive training, including the pseudo-Huber(δ=18) the
// paper selects.
package gbt

import (
	"fmt"
	"math"
	"math/rand"

	"domd/internal/ml"
	"domd/internal/ml/loss"
	"domd/internal/ml/tree"
)

// Params are the booster hyperparameters; they constitute the search space
// of the AutoHPT module (Task 5).
type Params struct {
	// NumRounds is the number of boosting rounds (trees).
	NumRounds int
	// LearningRate η shrinks each tree's contribution.
	LearningRate float64
	// MaxDepth bounds each tree.
	MaxDepth int
	// MinChildWeight is the minimum hessian mass per leaf child.
	MinChildWeight float64
	// Lambda is L2 regularization on leaf weights.
	Lambda float64
	// Gamma is the minimum split gain.
	Gamma float64
	// Subsample is the row sampling fraction per round in (0, 1].
	Subsample float64
	// ColsampleByTree is the feature sampling fraction per tree in (0, 1].
	ColsampleByTree float64
	// TreeMethod selects split finding: "exact" (default) scans every
	// distinct value over column orders sorted once per fit (tree.Order);
	// "hist" pre-buckets features into quantile bins (XGBoost's approx
	// method), much faster on large row counts.
	TreeMethod string
	// Bins is the histogram resolution for TreeMethod "hist" (default 64).
	Bins int
	// Seed drives the subsampling RNG.
	Seed int64
}

// DefaultParams mirror XGBoost defaults at a scale suited to ~200-row data.
func DefaultParams() Params {
	return Params{
		NumRounds:       100,
		LearningRate:    0.1,
		MaxDepth:        4,
		MinChildWeight:  1,
		Lambda:          1,
		Gamma:           0,
		Subsample:       1,
		ColsampleByTree: 1,
		Seed:            1,
	}
}

// Validate rejects out-of-range hyperparameters.
func (p Params) Validate() error {
	if p.NumRounds < 1 {
		return fmt.Errorf("gbt: num rounds %d < 1", p.NumRounds)
	}
	if p.LearningRate <= 0 || p.LearningRate > 1 {
		return fmt.Errorf("gbt: learning rate %f outside (0,1]", p.LearningRate)
	}
	if p.Subsample <= 0 || p.Subsample > 1 {
		return fmt.Errorf("gbt: subsample %f outside (0,1]", p.Subsample)
	}
	if p.ColsampleByTree <= 0 || p.ColsampleByTree > 1 {
		return fmt.Errorf("gbt: colsample %f outside (0,1]", p.ColsampleByTree)
	}
	switch p.TreeMethod {
	case "", "exact":
	case "hist":
		if p.Bins != 0 && (p.Bins < 2 || p.Bins > tree.MaxHistBins) {
			return fmt.Errorf("gbt: bins %d outside [2,%d]", p.Bins, tree.MaxHistBins)
		}
	default:
		return fmt.Errorf("gbt: unknown tree method %q", p.TreeMethod)
	}
	return p.treeConfig().Validate()
}

// treeConfig is the per-tree growth configuration of p.
func (p Params) treeConfig() tree.Config {
	return tree.Config{
		MaxDepth:        p.MaxDepth,
		MinChildWeight:  p.MinChildWeight,
		Lambda:          p.Lambda,
		Gamma:           p.Gamma,
		MinSamplesSplit: 2,
	}
}

// Trainer fits boosters with fixed Params and Loss; it satisfies ml.Trainer.
type Trainer struct {
	Params Params
	Loss   loss.Loss
}

// NewTrainer builds a Trainer, defaulting the loss to ℓ2.
func NewTrainer(p Params, l loss.Loss) *Trainer {
	if l == nil {
		l = loss.Squared{}
	}
	return &Trainer{Params: p, Loss: l}
}

// Name implements ml.Trainer.
func (t *Trainer) Name() string { return "xgboost" }

// Fit implements ml.Trainer.
func (t *Trainer) Fit(d *ml.Dataset) (ml.Model, error) {
	return Fit(t.Params, t.Loss, d)
}

// Model is a trained boosted ensemble.
type Model struct {
	base     float64 // global bias (mean target)
	eta      float64
	trees    []*tree.Node
	nFeature int
}

// Fit trains a booster on d. d.Y must be set, and every value of d.X and
// d.Y finite.
func Fit(p Params, l loss.Loss, d *ml.Dataset) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Y == nil || len(d.Y) == 0 {
		return nil, fmt.Errorf("gbt: training requires targets")
	}
	if d.NumCols() == 0 {
		return nil, fmt.Errorf("gbt: training requires at least one feature")
	}
	if err := checkFinite(d); err != nil {
		return nil, err
	}
	grow, err := newGrower(p, d.X)
	if err != nil {
		return nil, err
	}
	return fit(p, l, d, grow)
}

// checkFinite refuses NaN and ±Inf in the design matrix and targets: a NaN
// has no place in a sorted column, and either would turn gains and leaf
// weights into NaN.
func checkFinite(d *ml.Dataset) error {
	for i, row := range d.X {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				name := ""
				if d.Names != nil {
					name = fmt.Sprintf(" (%s)", d.Names[j])
				}
				return fmt.Errorf("gbt: row %d, column %d%s: non-finite feature value %v", i, j, name, v)
			}
		}
		if y := d.Y[i]; math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("gbt: row %d: non-finite target %v", i, y)
		}
	}
	return nil
}

// grower grows one boosting round's tree from the round's gradients,
// hessians and sampled rows and columns.
type grower func(g, h []float64, rows, cols []int) (*tree.Node, error)

// newGrower prepares p's split finder on X once per fit: the quantile bins
// for "hist", the sorted column orders for "exact". Every round reuses them.
func newGrower(p Params, X [][]float64) (grower, error) {
	cfg := p.treeConfig()
	if p.TreeMethod == "hist" {
		bins := p.Bins
		if bins == 0 {
			bins = 64
		}
		binner, err := tree.NewBinner(X, bins)
		if err != nil {
			return nil, err
		}
		return func(g, h []float64, rows, cols []int) (*tree.Node, error) {
			return tree.BuildHist(cfg, binner, g, h, rows, cols)
		}, nil
	}
	order, err := tree.NewOrder(X)
	if err != nil {
		return nil, err
	}
	return func(g, h []float64, rows, cols []int) (*tree.Node, error) {
		return tree.Build(cfg, order, g, h, rows, cols)
	}, nil
}

// fit runs the boosting rounds of Fit on validated data, growing each
// round's tree with grow.
func fit(p Params, l loss.Loss, d *ml.Dataset, grow grower) (*Model, error) {
	if l == nil {
		l = loss.Squared{}
	}
	n, pCols := d.NumRows(), d.NumCols()

	// Base score: the loss-optimal constant (mean for ℓ2, median-refined
	// for the robust losses).
	base := 0.0
	for _, y := range d.Y {
		base += y
	}
	base /= float64(n)
	if opt, ok := l.(loss.LeafOptimizer); ok {
		neg := make([]float64, n)
		for i, y := range d.Y {
			neg[i] = -y
		}
		base = opt.OptimalLeaf(neg)
	}

	m := &Model{base: base, eta: p.LearningRate, nFeature: pCols}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	g := make([]float64, n)
	h := make([]float64, n)
	rng := rand.New(rand.NewSource(p.Seed))

	// Robust losses (ℓ1, Huber family) pair TreeBoost-style: the tree is
	// grown on pure gradients with unit weights (so MinChildWeight means
	// rows, not vanishing Hessian mass), and leaf values are re-estimated
	// by per-leaf line search below. Smooth ℓ2 keeps exact Newton steps.
	_, treeBoost := l.(loss.LeafOptimizer)

	allRows := seq(n)
	allCols := seq(pCols)
	for round := 0; round < p.NumRounds; round++ {
		for i := range g {
			r := pred[i] - d.Y[i]
			g[i] = l.Grad(r)
			if treeBoost {
				h[i] = 1
			} else {
				h[i] = l.Hess(r)
			}
		}
		rows := sample(rng, allRows, p.Subsample)
		cols := sample(rng, allCols, p.ColsampleByTree)
		tr, err := grow(g, h, rows, cols)
		if err != nil {
			return nil, fmt.Errorf("gbt: round %d: %w", round, err)
		}
		// TreeBoost leaf re-estimation: losses with vanishing Hessians
		// (ℓ1, Huber family) replace each leaf's Newton weight with the
		// loss-optimal constant over its residuals, so large targets are
		// reachable without losing robustness.
		if opt, ok := l.(loss.LeafOptimizer); ok {
			refitLeaves(tr, opt, d, pred, rows)
		}
		m.trees = append(m.trees, tr)
		for i, row := range d.X {
			pred[i] += p.LearningRate * tr.Predict(row)
		}
	}
	return m, nil
}

// Predict implements ml.Model.
func (m *Model) Predict(x []float64) float64 {
	out := m.base
	for _, t := range m.trees {
		out += m.eta * t.Predict(x)
	}
	return out
}

// Importances implements ml.Model: total split gain per feature.
func (m *Model) Importances() []float64 {
	imp := make([]float64, m.nFeature)
	for _, t := range m.trees {
		t.AccumImportances(imp)
	}
	return imp
}

// NumTrees reports the ensemble size.
func (m *Model) NumTrees() int { return len(m.trees) }

// refitLeaves assigns each training row (of this round's subsample) to its
// leaf and replaces the leaf weight with the loss-optimal constant for the
// residuals routed there.
func refitLeaves(root *tree.Node, opt loss.LeafOptimizer, d *ml.Dataset, pred []float64, rows []int) {
	byLeaf := make(map[*tree.Node][]float64)
	for _, i := range rows {
		leaf := root.LeafFor(d.X[i])
		byLeaf[leaf] = append(byLeaf[leaf], pred[i]-d.Y[i])
	}
	for leaf, residuals := range byLeaf {
		leaf.Weight = opt.OptimalLeaf(residuals)
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// sample returns a random fraction of xs without replacement (at least one
// element). frac == 1 returns xs itself.
func sample(rng *rand.Rand, xs []int, frac float64) []int {
	if frac >= 1 {
		return xs
	}
	k := int(frac * float64(len(xs)))
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(len(xs))[:k]
	out := make([]int, k)
	for i, j := range perm {
		out[i] = xs[j]
	}
	return out
}
