package agg

import (
	"obs"
	"sim"
)

func metricsByValue(m sim.Metrics) int64 { // want `by-value parameter copies sim\.Metrics by value`
	return m.Assigned
}

func handMerge(dst, src *sim.Metrics) {
	dst.Assigned += src.Assigned // want `field-by-field merge of sim\.Metrics`
}

func allowedHandMerge(dst, src *sim.Metrics) {
	dst.Assigned += src.Assigned //vetkit:allow lockdiscipline fixture stands in for a documented one-field migration shim
}

func mergeViaAPI(dst, src *sim.Metrics, h, g *obs.Histogram) {
	dst.Merge(src)
	h.Merge(g)
}

func attributionByValue(a obs.Attribution) int { // want `by-value parameter copies obs\.Attribution by value`
	return a.Requests
}

func attributionHandMerge(dst, src *obs.Attribution) {
	dst.Requests += src.Requests // want `field-by-field merge of obs\.Attribution`
}

func stageStatsByValue(s obs.StageStats) int { // want `by-value parameter copies obs\.StageStats by value`
	return s.Spans
}

func stageStatsHandMerge(dst, src *obs.StageStats) {
	dst.TotalNs += src.TotalNs // want `field-by-field merge of obs\.StageStats`
}

func attributionMergeViaAPI(dst, src *obs.Attribution) {
	dst.Merge(src)
}
