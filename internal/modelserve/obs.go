package modelserve

import "domd/internal/obs"

// Model serving metrics (full catalog: docs/OPERATIONS.md).
var (
	mLoads = obs.NewCounter("domd_model_loads_total",
		"Window artifacts loaded and digest-verified from the model directory.")
	mLoadFailures = obs.NewCounter("domd_model_load_failures_total",
		"Registry load attempts that failed (unreadable manifest, missing artifact, digest mismatch); the previous snapshot keeps serving.")
	mSwaps = obs.NewCounter("domd_model_swaps_total",
		"Hot swaps that changed the serving model version (startup load counts when it activates a version).")
	mVersions = obs.NewGauge("domd_model_versions",
		"Model versions listed in the registry manifest (available for rollback).")
	mFallbacks = obs.NewCounter("domd_model_window_fallbacks_total",
		"Predictions answered by the nearest window because no trained window covered the query's t* (rows carry window_fallback:true).")
	mPredictLatency = obs.NewHistogram("domd_predict_duration_seconds",
		"Model-side latency of one estimate: feature extraction, trajectory, conformal band, and (for /query and /fleet) top drivers for one avail.", obs.DefBuckets)
)
