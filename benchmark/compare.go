package main

import (
	"fmt"
	"io"
)

// worsening is how much worse b is than a as a share of a, signed so that
// positive always means worse whatever the metric's direction.
func worsening(def metricDef, a, b float64) float64 {
	change := ratio(b-a, a)
	if def.Better == "higher" {
		return -change
	}
	return change
}

// compareSuites prints, for every (workload, metric) of two results files,
// both values and the relative change, with the regression bound for
// end-to-end metrics. It reports false when b regresses against a: an
// end-to-end metric worse by more than its bound, more failed operations or
// service-guarantee violations, failed output checks, or files that do not describe the same experiment (stack, seed or N differ).
func compareSuites(w io.Writer, a, b *suiteResults) bool {
	ok := true
	if a.Seed != b.Seed || a.N != b.N || a.Warmup != b.Warmup {
		fmt.Fprintf(w, "NOT COMPARABLE: seed/N/warm-up %d/%d/%d vs %d/%d/%d\n", a.Seed, a.N, a.Warmup, b.Seed, b.N, b.Warmup)
		ok = false
	}
	fmt.Fprintf(w, "A: %s %s gomaxprocs=%d   B: %s %s gomaxprocs=%d   seed=%d N=%d\n",
		short(a.GitSHA), a.GoVersion, a.GOMAXPROCS, short(b.GitSHA), b.GoVersion, b.GOMAXPROCS, a.Seed, a.N)
	byName := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "\n%s: NOT COMPARABLE: missing from B\n", ra.Workload)
			ok = false
			continue
		}
		digest := "same"
		if ra.Digest != rb.Digest {
			digest = "DIFFERENT"
		}
		fmt.Fprintf(w, "\n%s: stack %s -> %s, assignment_digest %s -> %s (%s), failed %d -> %d, violations %d -> %d\n",
			ra.Workload, ra.Stack, rb.Stack, ra.Digest, rb.Digest, digest, ra.Failed, rb.Failed, ra.Violations, rb.Violations)
		if ra.Stack != rb.Stack || ra.OfferedRPS != rb.OfferedRPS {
			fmt.Fprintf(w, "  NOT COMPARABLE: stack or offered_rps differ\n")
			ok = false
		}
		if rb.Failed > ra.Failed || rb.Violations > ra.Violations {
			fmt.Fprintf(w, "  REGRESSION: failed operations or service-guarantee violations rose\n")
			ok = false
		}
		if !rb.Correct {
			fmt.Fprintf(w, "  REGRESSION: B's output checks failed\n")
			ok = false
		}
		fmt.Fprintf(w, "  %-32s %14s %14s %9s %7s\n", "metric", "A", "B", "worse by", "bound")
		for _, def := range endToEnd {
			va, vb := ra.EndToEnd[def.Name], rb.EndToEnd[def.Name]
			worse := worsening(def, va, vb)
			verdict := ""
			if worse > def.Bound {
				verdict = "  REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "  %-32s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", def.Name, va, vb, 100*worse, 100*def.Bound, verdict)
		}
		if ra.PerLayer == nil || rb.PerLayer == nil {
			continue
		}
		for _, def := range perLayer {
			va, vb := ra.PerLayer[def.Name], rb.PerLayer[def.Name]
			fmt.Fprintf(w, "  %-32s %14.6g %14.6g %+8.2f%%\n", def.Name, va, vb, 100*worsening(def, va, vb))
		}
	}
	return ok
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}
