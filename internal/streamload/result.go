package streamload

import "chordbalance/internal/stats"

// Totals is the monotone counter snapshot a driver exposes while
// running — the four numbers a streaming client's collector report
// carries (netchord.Client.ReportStream), cheap enough to poll from a
// reporter loop.
type Totals struct {
	// Chunks is chunks delivered so far.
	Chunks uint64
	// DeadlineMiss is chunks that arrived after their playback
	// deadline.
	DeadlineMiss uint64
	// Rebuffers is playhead stalls so far.
	Rebuffers uint64
	// Bytes is payload bytes delivered so far.
	Bytes uint64
}

// Result is the outcome of one streaming run, identical in shape for
// the real-time Engine and the virtual driver so the two are directly
// comparable (and a virtual run's JSON is byte-reproducible).
type Result struct {
	// Viewers is the concurrent viewer count the run was configured
	// with.
	Viewers int `json:"viewers"`
	// Sessions is completed playback sessions (viewer-object pairs).
	Sessions int `json:"sessions"`
	// Chunks is total chunks delivered.
	Chunks uint64 `json:"chunks"`
	// Bytes is total payload bytes delivered.
	Bytes uint64 `json:"bytes"`
	// FetchErrors is failed fetch attempts (each retried).
	FetchErrors uint64 `json:"fetch_errors"`
	// DeadlineMiss is chunks that arrived after their playback
	// deadline.
	DeadlineMiss uint64 `json:"deadline_miss"`
	// Rebuffers is playhead stalls across all sessions.
	Rebuffers uint64 `json:"rebuffers"`
	// SLOMiss is chunks whose fetch latency exceeded the configured
	// SLO (0 when no SLO is set).
	SLOMiss uint64 `json:"slo_miss"`
	// DeadlineMissRate is DeadlineMiss / Chunks.
	DeadlineMissRate float64 `json:"deadline_miss_rate"`
	// RebufferRate is Rebuffers / Chunks — stalls per delivered chunk,
	// the headline quality-of-experience metric.
	RebufferRate float64 `json:"rebuffer_rate"`
	// StallNs is total playhead stall time across all sessions.
	StallNs int64 `json:"stall_ns"`
	// DurationNs is the run length: wall time for the Engine, final
	// event time for the virtual driver.
	DurationNs int64 `json:"duration_ns"`
	// FetchP50us, FetchP90us, and FetchP99us are per-chunk fetch
	// latency percentiles in microseconds.
	FetchP50us float64 `json:"fetch_p50_us"`
	// FetchP90us is the 90th-percentile fetch latency in microseconds.
	FetchP90us float64 `json:"fetch_p90_us"`
	// FetchP99us is the 99th-percentile fetch latency in microseconds —
	// the tail the paper's strategies are supposed to cut on hot
	// objects.
	FetchP99us float64 `json:"fetch_p99_us"`
	// StartupP50us is the median time to fill the startup buffer, in
	// microseconds.
	StartupP50us float64 `json:"startup_p50_us"`
	// StartupP99us is the 99th-percentile startup time in microseconds.
	StartupP99us float64 `json:"startup_p99_us"`
	// LatsUs holds every per-chunk fetch latency in microseconds, for
	// feeding obs histograms; excluded from JSON (it can be millions of
	// entries).
	LatsUs []float64 `json:"-"`
}

// finalize fills the derived fields of r from LatsUs and the startup
// samples (microseconds).
func (r *Result) finalize(startupUs []float64) {
	if r.Chunks > 0 {
		r.RebufferRate = float64(r.Rebuffers) / float64(r.Chunks)
		r.DeadlineMissRate = float64(r.DeadlineMiss) / float64(r.Chunks)
	}
	if len(r.LatsUs) > 0 {
		r.FetchP50us = stats.Percentile(r.LatsUs, 50)
		r.FetchP90us = stats.Percentile(r.LatsUs, 90)
		r.FetchP99us = stats.Percentile(r.LatsUs, 99)
	}
	if len(startupUs) > 0 {
		r.StartupP50us = stats.Percentile(startupUs, 50)
		r.StartupP99us = stats.Percentile(startupUs, 99)
	}
}
