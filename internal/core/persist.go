package core

import (
	"encoding/json"
	"fmt"
	"io"

	"domd/internal/fusion"
	"domd/internal/ml"
	"domd/internal/ml/gbt"
	"domd/internal/ml/linear"
)

// Trained pipelines serialize to JSON so the model bank fitted inside the
// training enclave can be shipped to a serving tier without retraining (the
// paper's deployment splits training and the SMDII front end).

type slotJSON struct {
	Cols   []int           `json:"cols"`
	Params *gbt.Params     `json:"params,omitempty"`
	Model  json.RawMessage `json:"model"`
}

type colStatsJSON struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

type pipelineJSON struct {
	Config      Config          `json:"config"`
	Timestamps  []float64       `json:"timestamps"`
	Names       []string        `json:"names"`
	Slots       []slotJSON      `json:"slots"`
	StaticModel json.RawMessage `json:"static_model,omitempty"`
	TrainStats  []colStatsJSON  `json:"train_stats"`
}

func marshalModel(cfg Config, m ml.Model) (json.RawMessage, error) {
	switch cfg.Family {
	case FamilyXGBoost:
		gm, ok := m.(*gbt.Model)
		if !ok {
			return nil, fmt.Errorf("core: model is %T, want *gbt.Model", m)
		}
		return json.Marshal(gm)
	case FamilyElasticNet:
		lm, ok := m.(*linear.Model)
		if !ok {
			return nil, fmt.Errorf("core: model is %T, want *linear.Model", m)
		}
		return json.Marshal(lm)
	default:
		return nil, fmt.Errorf("core: cannot serialize family %q", cfg.Family)
	}
}

func unmarshalModel(cfg Config, raw json.RawMessage) (ml.Model, error) {
	switch cfg.Family {
	case FamilyXGBoost:
		m := &gbt.Model{}
		if err := json.Unmarshal(raw, m); err != nil {
			return nil, err
		}
		return m, nil
	case FamilyElasticNet:
		m := &linear.Model{}
		if err := json.Unmarshal(raw, m); err != nil {
			return nil, err
		}
		if len(m.Coef) == 0 {
			return nil, fmt.Errorf("core: linear model has no coefficients")
		}
		return m, nil
	default:
		return nil, fmt.Errorf("core: cannot deserialize family %q", cfg.Family)
	}
}

// Save writes the trained pipeline as JSON. Workers is written as 0:
// training is deterministic at any worker count, so it is no property of
// the model, and the same data trained at -workers 1 and 2 must encode to
// the same bytes (and so the same content-derived version name). Load
// still accepts artifacts that carry it.
func (p *Pipeline) Save(w io.Writer) error {
	cfg := p.cfg
	cfg.Workers = 0
	pj := pipelineJSON{
		Config:     cfg,
		Timestamps: p.timestamps,
		Names:      p.names,
	}
	for _, s := range p.slots {
		raw, err := marshalModel(p.cfg, s.model)
		if err != nil {
			return err
		}
		pj.Slots = append(pj.Slots, slotJSON{Cols: s.cols, Params: s.params, Model: raw})
	}
	if p.staticModel != nil {
		raw, err := marshalModel(p.cfg, p.staticModel)
		if err != nil {
			return err
		}
		pj.StaticModel = raw
	}
	for _, cs := range p.trainStats {
		pj.TrainStats = append(pj.TrainStats, colStatsJSON{Mean: cs.mean, Std: cs.std})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(pj)
}

// Load reconstructs a pipeline saved with Save.
func Load(r io.Reader) (*Pipeline, error) {
	var pj pipelineJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("core: load pipeline: %w", err)
	}
	if err := pj.Config.Validate(); err != nil {
		return nil, fmt.Errorf("core: load pipeline: %w", err)
	}
	if len(pj.Slots) == 0 || len(pj.Slots) != len(pj.Timestamps) {
		return nil, fmt.Errorf("core: load pipeline: %d slots for %d timestamps", len(pj.Slots), len(pj.Timestamps))
	}
	if len(pj.TrainStats) != len(pj.Slots) {
		return nil, fmt.Errorf("core: load pipeline: %d train stats for %d slots", len(pj.TrainStats), len(pj.Slots))
	}
	fuser, err := fusion.New(pj.Config.Fusion)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:        pj.Config,
		timestamps: pj.Timestamps,
		names:      pj.Names,
		fuser:      fuser,
	}
	for i, sj := range pj.Slots {
		m, err := unmarshalModel(pj.Config, sj.Model)
		if err != nil {
			return nil, fmt.Errorf("core: load slot %d: %w", i, err)
		}
		p.slots = append(p.slots, slot{cols: sj.Cols, model: m, params: sj.Params})
	}
	if pj.Config.Stacked {
		if pj.StaticModel == nil {
			return nil, fmt.Errorf("core: load pipeline: stacked config without static model")
		}
		p.staticModel, err = unmarshalModel(pj.Config, pj.StaticModel)
		if err != nil {
			return nil, fmt.Errorf("core: load static model: %w", err)
		}
	}
	for _, cs := range pj.TrainStats {
		p.trainStats = append(p.trainStats, colStats{mean: cs.Mean, std: cs.Std})
	}
	return p, nil
}
