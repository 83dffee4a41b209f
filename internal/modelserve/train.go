package modelserve

import (
	"fmt"
	"os"
	"path/filepath"

	"domd/internal/core"
	"domd/internal/features"
)

// TrainOptions parameterize TrainVersion.
type TrainOptions struct {
	// Windows are the logical-time intervals to train one model per,
	// ascending; every window must cover at least one tensor grid slot.
	Windows []Window
	// Alpha is the version's default conformal miscoverage level;
	// <= 0 selects DefaultAlpha.
	Alpha float64
	// Version names the artifacts; "" derives "v<hash12>" from the
	// artifact content, so retraining identical data under identical
	// config reproduces the same version name.
	Version string
	// Config is the pipeline training configuration (selector, family,
	// fusion, HPT budget, workers, seed).
	Config core.Config
}

// trainedArtifact is one encoded window model awaiting WriteTo.
type trainedArtifact struct {
	window Window
	data   []byte
	sha    string
}

// TrainedVersion is the in-memory result of TrainVersion: encoded,
// digest-stamped window artifacts ready to be published into a model
// directory.
type TrainedVersion struct {
	// Name is the version the manifest will list.
	Name string
	// Alpha is the version's default miscoverage level.
	Alpha float64
	arts  []trainedArtifact
}

// Windows lists the trained windows in training order.
func (tv *TrainedVersion) Windows() []Window {
	out := make([]Window, len(tv.arts))
	for i, a := range tv.arts {
		out[i] = a.window
	}
	return out
}

// TrainVersion fits one pipeline + conformal calibration per window over
// the tensor's grid slots inside that window: training rows fit the
// models, validation rows calibrate the conformal bands (held out from
// fitting, so the bands carry the split-conformal coverage guarantee up
// to HPT optimism — see core.NewConformal).
func TrainVersion(tensor *features.Tensor, trainRows, calibRows []int, opts TrainOptions) (*TrainedVersion, error) {
	if len(opts.Windows) == 0 {
		return nil, fmt.Errorf("modelserve: no training windows")
	}
	alpha := opts.Alpha
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	tv := &TrainedVersion{Name: opts.Version, Alpha: alpha}
	for _, w := range opts.Windows {
		sub, err := windowTensor(tensor, w)
		if err != nil {
			return nil, err
		}
		pipe, err := core.Train(opts.Config, sub, trainRows, calibRows)
		if err != nil {
			return nil, fmt.Errorf("modelserve: train window %v: %w", w, err)
		}
		conf, err := core.NewConformal(pipe, sub, calibRows)
		if err != nil {
			return nil, fmt.Errorf("modelserve: calibrate window %v: %w", w, err)
		}
		data, sha, err := encodeArtifact(w, features.SchemaDigest(sub.Slices[0].Names), pipe, conf)
		if err != nil {
			return nil, err
		}
		tv.arts = append(tv.arts, trainedArtifact{window: w, data: data, sha: sha})
	}
	if tv.Name == "" {
		all := make([]byte, 0)
		for _, a := range tv.arts {
			all = append(all, a.sha...)
		}
		tv.Name = "v" + digest(all)[:12]
	}
	return tv, nil
}

// windowTensor restricts a tensor to the grid slots a window covers
// (inclusive bounds; a boundary slot shared by two windows is trained
// into both models).
func windowTensor(t *features.Tensor, w Window) (*features.Tensor, error) {
	sub := &features.Tensor{Avails: t.Avails}
	for k, ts := range t.Timestamps {
		if w.Contains(ts) {
			sub.Timestamps = append(sub.Timestamps, ts)
			sub.Slices = append(sub.Slices, t.Slices[k])
		}
	}
	if len(sub.Timestamps) == 0 {
		return nil, fmt.Errorf("modelserve: window %v covers no grid slot of %v", w, t.Timestamps)
	}
	return sub, nil
}

// WriteTo publishes the version into a model directory: artifacts first
// (each written durably and atomically), the manifest last, so a reload that races the
// publish sees either the old manifest or a complete new version. When
// activate is true (or the manifest has no active version yet) the new
// version becomes the serving one; an entry with the same name is
// replaced. Returns the version name.
func (tv *TrainedVersion) WriteTo(dir string, activate bool) (string, error) {
	vdir := filepath.Join(dir, tv.Name)
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return "", fmt.Errorf("modelserve: create %s: %w", vdir, err)
	}
	mv := ManifestVersion{Version: tv.Name, Alpha: tv.Alpha}
	for i, a := range tv.arts {
		rel := tv.Name + "/" + fmt.Sprintf("window-%03d.json", i)
		if err := writeFile(filepath.Join(dir, filepath.FromSlash(rel)), a.data); err != nil {
			return "", err
		}
		mv.Artifacts = append(mv.Artifacts, ManifestArtifact{File: rel, Lo: a.window.Lo, Hi: a.window.Hi, SHA256: a.sha})
	}
	man, err := ReadManifest(dir)
	if err != nil {
		return "", err
	}
	if existing, ok := man.Version(tv.Name); ok {
		*existing = mv
	} else {
		man.Versions = append(man.Versions, mv)
	}
	if activate || man.Active == "" {
		man.Active = tv.Name
	}
	if err := man.Write(dir); err != nil {
		return "", err
	}
	return tv.Name, nil
}
