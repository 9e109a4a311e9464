package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Prometheus text exposition (format version 0.0.4, which OpenMetrics
// scrapers also accept) for the obs metric surface, so a stock
// Prometheus can scrape the same endpoint the JSON consumers read. Every
// family is one unlabelled counter or gauge series.

// promContentType is the scrape response content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsProm reports whether an HTTP request to /metrics asked for the
// Prometheus exposition instead of JSON: ?format=prom, or an Accept
// header that names text/plain before application/json (what a
// Prometheus scraper sends).
func wantsProm(req *http.Request) bool {
	if req.URL.Query().Get("format") == "prom" {
		return true
	}
	accept := req.Header.Get("Accept")
	plain := strings.Index(accept, "text/plain")
	jsonAt := strings.Index(accept, "application/json")
	return plain >= 0 && (jsonAt < 0 || plain < jsonAt)
}

// PromWriter renders metric families in the Prometheus text format. Use
// one writer per scrape; families are written in call order, and Flush
// must be called last. Metric names are the caller's responsibility
// ([a-zA-Z_:][a-zA-Z0-9_:]*).
type PromWriter struct {
	w   *bufio.Writer
	err error
}

// NewPromWriter wraps w for one exposition.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: bufio.NewWriter(w)}
}

// Flush flushes the buffered exposition and returns the first error.
func (p *PromWriter) Flush() error {
	if err := p.w.Flush(); err != nil && p.err == nil {
		p.err = err
	}
	return p.err
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	if _, err := fmt.Fprintf(p.w, format, args...); err != nil {
		p.err = err
	}
}

func (p *PromWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes one counter family with a single series.
func (p *PromWriter) Counter(name, help string, v int64) {
	p.header(name, help, "counter")
	p.printf("%s %d\n", name, v)
}

// Gauge writes one gauge family with a single series.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.printf("%s %g\n", name, v)
}
