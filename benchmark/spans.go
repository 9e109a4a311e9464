package main

import (
	"bufio"
	"encoding/json"
	"io"

	"repro/internal/obs"
)

// Benchmark-side spans: intervals recorded from the benchmark's own files
// around the calls into each layer (Generator.Next, Producer.Submit, the
// sink call, Flush, Drain), next to the spans the program records itself.
// They share the tracer's clock (ns since its epoch) so both kinds line up in
// one file. Spans stay in memory during the pass and are written at exit.
type benchSpan struct {
	Name   string
	ID     uint64
	Parent uint64 // 0 = none
	Req    int64  // -1 = not tied to one request
	SimT   float64
	Start  int64
	End    int64
}

// Span names, prefixed with the layer (module) they bracket.
const (
	spanRequest = "bench.request" // root: submit start -> decision; ID = obs.RootSpanID
	spanNext    = "workload.next"
	spanSubmit  = "ingest.submit"
	spanSink    = "dispatch.sink"
	spanFlush   = "dispatch.final_flush"
	spanDrain   = "sim.drain"
)

// spanLog is one goroutine's span list; the producer and the drainer each
// own one, so recording takes no lock.
type spanLog struct {
	clock *obs.Ring // only read for the tracer's clock
	spans []benchSpan
}

func newSpanLog(tr *obs.Tracer, label string, capacity int) *spanLog {
	return &spanLog{clock: tr.Ring(label), spans: make([]benchSpan, 0, capacity)}
}

// now is ns since the tracer epoch; 0 on a nil log (tracing off).
func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return l.clock.SpanStart()
}

// add records a span that ends now. Request-scoped spans parent to the
// request's root span; no-op on a nil log.
func (l *spanLog) add(name string, req int64, simT float64, start int64) {
	if l == nil {
		return
	}
	sp := benchSpan{Name: name, ID: benchSpanID(name, req), Req: req, SimT: simT, Start: start, End: l.now()}
	switch {
	case name == spanRequest:
		sp.ID = obs.RootSpanID(req)
	case req >= 0:
		sp.Parent = obs.RootSpanID(req)
	}
	l.spans = append(l.spans, sp)
}

// benchSpanID mixes the span name (FNV-1a, inline so recording allocates
// nothing) with the request ID; never 0, the no-parent value.
func benchSpanID(name string, req int64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return (h ^ uint64(req)*0x9e3779b97f4a7c15) | 1
}

// spanLine is the JSONL form of a benchmark span: the same columns the
// tracer drains its own spans with, so obs.ReadTrace and cmd/tracetool read
// the whole file.
type spanLine struct {
	WallNs  int64   `json:"wall_ns"`
	Src     string  `json:"src"`
	Seq     int     `json:"seq"`
	Span    string  `json:"span"`
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent"`
	Req     int64   `json:"req"`
	T       float64 `json:"t"`
	Arg     int64   `json:"arg"`
	StartNs int64   `json:"start_ns"`
}

// writeTrace writes the program's drained records followed by the
// benchmark-side spans.
func writeTrace(w io.Writer, programRecords []byte, spans []benchSpan) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(programRecords); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, sp := range spans {
		line := spanLine{
			WallNs: sp.End, Src: "bench", Seq: i, Span: sp.Name, ID: sp.ID,
			Parent: sp.Parent, Req: sp.Req, T: sp.SimT, StartNs: sp.Start,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
