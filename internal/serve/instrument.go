package serve

import (
	"math/bits"

	"repro/internal/metrics"
)

// Pipeline stages timed by the coordinator into per-stage histograms
// (spinner_stage_duration_seconds{stage=...}). A coordinator turn is
// maintain → drain → commit (handleGroup: journal, then apply); each index
// names one seam of it:
//
//	drain               log drain + group formation (transferLog + nextGroup)
//	journal             commit: wal group append incl. the fsync wait (journalGroup)
//	apply               commit: application of one group, publications included
//	publish             inside apply: counter move and publication of a relabeling event (relabel)
//	checkpoint_capture  inside maintain: the state capture and graph clone (captureState)
//	checkpoint_write    off the turn: background checkpoint encode + install
const (
	stageDrain = iota
	stageJournal
	stageApply
	stagePublish
	stageCkptCapture
	stageCkptWrite
	numStages
)

var stageNames = [numStages]string{
	stageDrain:       "drain",
	stageJournal:     "journal",
	stageApply:       "apply",
	stagePublish:     "publish",
	stageCkptCapture: "checkpoint_capture",
	stageCkptWrite:   "checkpoint_write",
}

// initMetrics builds the store's metric registry and registers the serve
// plane's own series. The registry is process-scoped by convention: the
// API layer and the replication follower register their series into the
// same registry (via Store.Metrics) so one /v1/metrics endpoint covers
// the whole process. Called from newStore before any goroutine can
// observe the store.
func (s *Store) initMetrics() {
	s.reg = metrics.NewRegistry()
	s.reg.RegisterCounters(&s.ctr)
	for i := range s.stageHist {
		s.stageHist[i] = s.reg.NewHistogram(
			"spinner_stage_duration_seconds",
			"Wall-clock duration of one execution of a serve-pipeline stage.",
			metrics.UnitSeconds,
			metrics.Label{Key: "stage", Value: stageNames[i]},
		)
	}
	s.lookupHist = s.reg.NewHistogram(
		"spinner_lookup_duration_seconds",
		"Sampled lookup latency (one in Config.LookupSampleEvery lookups is timed).",
		metrics.UnitSeconds,
	)
	s.reg.NewGaugeFunc(
		"spinner_watch_subscribers",
		"Delta-hub broadcast registrations (watch streams currently parked on or draining the change feed).",
		func() float64 { return float64(s.deltas.subs.len()) },
	)
	// Sampling mask: a lookup is timed when its Lookups-counter value has
	// all mask bits zero, i.e. one in every (mask+1) lookups. The counter
	// starts at 1, so the all-ones disabled mask matches (practically)
	// never without any extra branch on the hot path.
	switch every := s.cfg.LookupSampleEvery; {
	case every < 0:
		s.lookupMask = ^uint64(0)
	case every <= 1:
		s.lookupMask = 0
	default:
		s.lookupMask = 1<<bits.Len64(uint64(every)-1) - 1
	}
}
