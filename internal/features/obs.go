package features

import "domd/internal/obs"

// Tensor-build and feature-trajectory metrics, registered process-wide
// in obs.Default and exposed on GET /metrics (catalog:
// docs/OPERATIONS.md). Durations come from obs stopwatches because the
// walltime lint invariant bans direct time.Now calls in this package.
var (
	mTensorBuilds = obs.NewCounter("domd_tensor_builds_total",
		"Feature-tensor builds completed (BuildTensorOpt).")
	mTensorBuildSeconds = obs.NewHistogram("domd_tensor_build_duration_seconds",
		"Feature-tensor build latency in seconds.", obs.DefBuckets)
	mTensorRows = obs.NewCounter("domd_tensor_build_rows_total",
		"Feature vectors extracted across tensor builds (avail rows x timestamps).")
	mTensorWorkers = obs.NewGauge("domd_tensor_build_workers",
		"Worker-pool size of the most recent tensor build (utilization denominator).")

	mTrajectoryHits = obs.NewCounter("domd_feature_trajectory_hits_total",
		"Trajectory reads answered from an engine's cached feature vectors without a sweep.")
	mTrajectoryFills = obs.NewCounter("domd_feature_trajectory_fills_total",
		"CellSweep passes run to fill missing or invalidated feature-trajectory slots.")
	mTrajectoryTruncations = obs.NewCounter("domd_feature_trajectory_truncations_total",
		"Feature trajectories dropped whole because an ingest moved their engine's revision on.")
	mTrajectoryEvictions = obs.NewCounter("domd_feature_trajectory_evictions_total",
		"Feature trajectories dropped to keep the cache within its byte budget.")
	mTrajectoryBytes = obs.NewGauge("domd_feature_trajectory_bytes",
		"Bytes of feature vectors held by cached trajectories across all engines.")
)
