package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func expose(t *testing.T, fn func(*PromWriter)) string {
	t.Helper()
	var b strings.Builder
	pw := NewPromWriter(&b)
	fn(pw)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestPromCounterAndGauge(t *testing.T) {
	got := expose(t, func(pw *PromWriter) {
		pw.Counter("rides_matched_total", "Matched requests.", 5)
		pw.Gauge("rides_burn", "Burn rate.", 1.5)
	})
	want := "# HELP rides_matched_total Matched requests.\n" +
		"# TYPE rides_matched_total counter\n" +
		"rides_matched_total 5\n" +
		"# HELP rides_burn Burn rate.\n" +
		"# TYPE rides_burn gauge\n" +
		"rides_burn 1.5\n"
	if got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestWantsProm(t *testing.T) {
	req := func(target, accept string) *http.Request {
		r := httptest.NewRequest("GET", target, nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		return r
	}
	cases := []struct {
		target, accept string
		want           bool
	}{
		{"/metrics", "", false},
		{"/metrics?format=prom", "", true},
		{"/metrics", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1", true},
		{"/metrics", "text/plain, application/json", true},
		{"/metrics", "application/json, text/plain", false},
		{"/metrics", "application/json", false},
	}
	for _, c := range cases {
		if got := wantsProm(req(c.target, c.accept)); got != c.want {
			t.Fatalf("wantsProm(%q, Accept=%q) = %v, want %v", c.target, c.accept, got, c.want)
		}
	}
}

func TestServeNegotiatesPromAndJSON(t *testing.T) {
	l := &Live{}
	l.Add(Matched, 3)
	s, err := Serve("127.0.0.1:0", l, NewSLOTracker(0.9, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path, accept string) (string, string) {
		req, _ := http.NewRequest("GET", "http://"+s.Addr()+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status = %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics", "")
	if ct != "application/json" || !strings.Contains(body, `"matched": 3`) {
		t.Fatalf("plain /metrics: ct=%q body=%s", ct, body)
	}
	for _, variant := range []struct{ path, accept string }{
		{"/metrics?format=prom", ""},
		{"/metrics", "text/plain;version=0.0.4"},
		{"/metrics/prom", ""},
	} {
		body, ct := get(variant.path, variant.accept)
		if ct != promContentType {
			t.Fatalf("GET %s Accept=%q: content type = %q", variant.path, variant.accept, ct)
		}
		if !strings.Contains(body, "ridesim_matched_total 3") || !strings.Contains(body, "ridesim_slo_objective 0.9") {
			t.Fatalf("GET %s: exposition missing counter:\n%s", variant.path, body)
		}
	}
}
