package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workload"
)

// goldenArgs is the run testdata/golden.json holds: the -json snapshot of
// exactly these flags.
var goldenArgs = []string{"-scale", "0.002", "-servers", "40", "-seed", "7", "-json"}

// seedExact are the snapshot fields a seed fixes exactly: every integer
// counter, the occupancy statistics (small-integer arithmetic over
// per-vehicle peaks) and the distance totals, which sum values on the
// road network's 1/256 m grid and so are exact in any order and at any
// shard count. Wall-clock fields and cache counters (two workers can both
// miss a pair one of them is about to publish) are deliberately left out.
type seedExact struct {
	Requests      int     `json:"requests"`
	Matched       int     `json:"matched"`
	Rejected      int     `json:"rejected"`
	Completed     int     `json:"completed"`
	Violations    int     `json:"violations"`
	TrialCalls    int     `json:"trial_calls"`
	TrialFailures int     `json:"trial_failures"`
	TreeNodesMax  int     `json:"tree_nodes_max"`
	OccupancyMax  int     `json:"occupancy_max"`
	OccupancyMean float64 `json:"occupancy_mean"`
	OccupancyTop  float64 `json:"occupancy_top20_mean"`
	WaitMeters    float64 `json:"total_wait_meters"`
	RideMeters    float64 `json:"total_ride_meters"`
	VehicleMeters float64 `json:"total_vehicle_meters"`
}

// ridesim parses args the way main does and runs them, returning stdout.
func ridesim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	fs := flag.NewFlagSet("ridesim", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(*o, &out)
	return out.String(), err
}

// golden reads testdata/golden.json's seed-exact fields.
func golden(t *testing.T) seedExact {
	t.Helper()
	raw, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want seedExact
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.Matched == 0 || want.TrialCalls == 0 {
		t.Fatalf("golden is empty: %+v", want)
	}
	return want
}

// keySet is the set of top-level keys of a JSON object.
func keySet(t *testing.T, raw []byte) map[string]bool {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("not one JSON object: %v\n%s", err, raw)
	}
	keys := make(map[string]bool, len(obj))
	for k := range obj {
		keys[k] = true
	}
	return keys
}

// seedExactOf runs ridesim with args and decodes its -json snapshot, whose
// keys must be exactly the golden's: no key may be dropped, renamed or
// added unseen.
func seedExactOf(t *testing.T, args ...string) seedExact {
	t.Helper()
	out, err := ridesim(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	var got seedExact
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("stdout is not one JSON snapshot: %v\n%s", err, out)
	}
	raw, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if have, want := keySet(t, []byte(out)), keySet(t, raw); !reflect.DeepEqual(have, want) {
		for k := range want {
			if !have[k] {
				t.Errorf("-json lacks the golden's key %q", k)
			}
		}
		for k := range have {
			if !want[k] {
				t.Errorf("-json has key %q, which the golden lacks", k)
			}
		}
	}
	return got
}

// TestGoldenJSON: the golden run at any worker or shard count, through the
// gateway, under the no-op fault plan and over every oracle stack makes the
// same decisions and drives the same metres: exact distances do not depend
// on who computed them.
func TestGoldenJSON(t *testing.T) {
	want := golden(t)
	extras := [][]string{
		nil, // default flags
		{"-workers", "4"},
		{"-shards", "3"},
		{"-batch", "0", "-producers", "4", "-shed-policy", "block"},
		{"-fault-plan", "none"},
	}
	for _, name := range pipeline.OracleNames() {
		extras = append(extras, []string{"-oracle", name})
	}
	for _, extra := range extras {
		t.Run(strings.Join(extra, " "), func(t *testing.T) {
			got := seedExactOf(t, append(append([]string{}, goldenArgs...), extra...)...)
			if got != want {
				t.Fatalf("seed-exact metrics drifted from the golden:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestFileReplayMatchesGolden: the golden run's world written to files —
// the graph in RNG1 format, its requests as CSV — and replayed through
// -graph/-trips gives the golden's seed-exact metrics, so the file path and
// the -scale path are one run.
func TestFileReplayMatchesGolden(t *testing.T) {
	if got, want := fileReplay(t, 7), golden(t); got != want {
		t.Fatalf("file replay drifted from the golden:\n got %+v\nwant %+v", got, want)
	}
}

// TestFileReplayMatchesRun: at seeds other than the golden's too, the file
// replay is the generated run. Request times written with fewer digits than
// round-trip would move the stream (at millisecond precision, seeds 1, 2
// and 4 ended with other tree sizes).
func TestFileReplayMatchesRun(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		want := seedExactOf(t, "-scale", "0.002", "-servers", "40", "-seed", fmt.Sprint(seed), "-json")
		if got := fileReplay(t, seed); got != want {
			t.Fatalf("seed %d: file replay differs from the run:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// fileReplay writes the world of the -scale 0.002 run at seed to a graph
// file and a trips CSV and replays them with -graph/-trips.
func fileReplay(t *testing.T, seed int64) seedExact {
	t.Helper()
	world, err := exp.BuildWorld(exp.WorldOptions{Scale: 0.002, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	graphPath, tripsPath := filepath.Join(dir, "city.bin"), filepath.Join(dir, "trips.csv")
	gf, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := world.Graph.WriteTo(gf); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Create(tripsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteCSV(tf, world.Requests); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	return seedExactOf(t, "-graph", graphPath, "-trips", tripsPath, "-servers", "40", "-seed", fmt.Sprint(seed), "-json")
}

// TestFailedRunStillReports: a run that ends in an error (an invariant
// violation, say) has metrics all the same. report must write them in
// full, text and JSON alike, and then hand the error back so the exit
// status stays non-zero.
func TestFailedRunStillReports(t *testing.T) {
	runErr := errors.New("pipeline: invariant violated: dispatch: 1 service-guarantee violations")
	m := sim.NewMetrics()
	m.Requests, m.Matched, m.Rejected, m.Violations = 12969, 3869, 9100, 1
	m.DistCacheHits, m.DistCacheMisses, m.PathCacheMisses = 90, 10, 7
	var ms runtime.MemStats
	for _, c := range []struct {
		json bool
		want []string
	}{
		{false, []string{"requests=12969", "violations=1", "wall time: 1m45s", "occupancy:", "tuning (", "dist cache: 90.0% hit (90 hits, 10 misses); 7 path searches"}},
		{true, []string{`"requests": 12969`, `"violations": 1`, `"path_cache_misses": 7`}},
	} {
		var out bytes.Buffer
		err := report(&out, options{jsonOut: c.json}, &pipeline.Pipeline{}, nil, m, ingest.DriveStats{}, 105*time.Second, &ms, &ms, runErr)
		if !errors.Is(err, runErr) {
			t.Errorf("json=%v: report returned %v, want the run error", c.json, err)
		}
		for _, want := range c.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("json=%v: report lacks %q:\n%s", c.json, want, out.String())
			}
		}
		if c.json && !json.Valid(out.Bytes()) {
			t.Errorf("stdout is not one JSON snapshot:\n%s", out.String())
		}
	}
	var out bytes.Buffer
	if err := report(&out, options{}, &pipeline.Pipeline{}, nil, m, ingest.DriveStats{}, time.Second, &ms, &ms, nil); err != nil {
		t.Errorf("a clean run's report returned %v", err)
	}
}

// TestBadFlagsFailBeforeAnyWork: a bad flag value or combination is an
// error reported before the world is built — nothing reaches stdout, no
// file is opened (the -graph/-trips paths here do not exist) and no
// listener is announced. The Spec-borne flags are covered case by case in
// internal/pipeline; one of them rides along here to pin that ridesim
// validates the Spec first.
func TestBadFlagsFailBeforeAnyWork(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-oracle", "no-such-value"}, "no-such-value"},
		{[]string{"-algo", "branchbound"}, `unknown algorithm "branchbound"`},
		{[]string{"-wait", "0"}, "-wait must be positive"},
		{[]string{"-eps", "0"}, "-eps must be positive"},
		{[]string{"-arrival", "no-such-value"}, "no-such-value"},
		{[]string{"-trips", "missing.csv"}, "-trips requires -graph"},
		{[]string{"-arrival", "poisson", "-graph", "missing.bin", "-trips", "missing.csv"}, "would discard -trips"},
	} {
		// -obs-addr would open a listener and announce it on stdout if the
		// flags were only checked after setup.
		args := append([]string{"-scale", "0.002", "-servers", "40", "-obs-addr", "127.0.0.1:0"}, c.args...)
		out, err := ridesim(t, args...)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%v: err = %v, want an error containing %q", c.args, err, c.wantErr)
		}
		if out != "" {
			t.Errorf("%v: wrote to stdout before failing:\n%s", c.args, out)
		}
	}
}
