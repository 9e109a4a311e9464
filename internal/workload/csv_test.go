package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/sim"
)

// csvGraph is the 225-vertex grid the CSV and Surge-day tests run on; the
// FuzzReadCSV seed corpus is written against it (out_of_range names vertex
// 225).
func csvGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Grid(roadnet.GridOptions{
		Rows: 15, Cols: 15, Spacing: 400, Jitter: 0.2, WeightVar: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCSVRoundTrip(t *testing.T) {
	g := csvGraph(t)
	gen, err := New(g, Options{Pattern: Surge, Trips: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reqs := gen.All()
	if err := gen.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round trip length %d vs %d", len(got), len(reqs))
	}
	for i := range got {
		if got[i].ID != reqs[i].ID || got[i].Pickup != reqs[i].Pickup || got[i].Dropoff != reqs[i].Dropoff {
			t.Fatalf("request %d differs after round trip", i)
		}
		if got[i].Time != reqs[i].Time {
			t.Fatalf("request %d time drifted: %v vs %v", i, got[i].Time, reqs[i].Time)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	g := csvGraph(t)
	cases := []string{
		"",
		"bogus,header,x,y\n",
		"id,time,pickup,dropoff\nnot-a-number,0,0,1\n",
		"id,time,pickup,dropoff\n1,xyz,0,1\n",
		"id,time,pickup,dropoff\n1,0,999999,1\n",
		"id,time,pickup,dropoff\n1,0,0\n",
		// Duplicate id: IDs break timestamp ties for replay and gateway
		// ordering, so a duplicate would make the order nondeterministic.
		"id,time,pickup,dropoff\n1,0,0,1\n1,5,0,1\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), g); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Non-finite times would break the (Time, ID) sort and the engine
	// clock; the error names the offending line.
	for _, bad := range []string{"NaN", "Inf", "-Inf", "+inf"} {
		_, err := ReadCSV(strings.NewReader("id,time,pickup,dropoff\n1,0,0,1\n2,"+bad+",0,1\n"), g)
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("time %q: got %v, want an error on line 3", bad, err)
		}
	}
}

// TestReadCSVSortsTiesByID: coarse real-trace timestamps make ties routine;
// the loader must order them by ID regardless of row order, matching the
// ingress gateway's stamped release order.
func TestReadCSVSortsTiesByID(t *testing.T) {
	g := csvGraph(t)
	in := "id,time,pickup,dropoff\n7,100,0,1\n3,100,1,2\n9,50,2,3\n"
	got, err := ReadCSV(strings.NewReader(in), g)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{9, 3, 7}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("order %v, want %v", []int64{got[0].ID, got[1].ID, got[2].ID}, want)
		}
	}
}

// FuzzReadCSV: no input makes ReadCSV panic, and whatever it accepts is in
// (Time, ID) order with unique IDs and in-range vertices, and survives a
// WriteCSV/ReadCSV round trip unchanged, times bit for bit. The seed corpus
// lives under testdata/fuzz.
func FuzzReadCSV(f *testing.F) {
	g := csvGraph(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadCSV(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		seen := make(map[int64]sim.Request, len(reqs))
		for i, r := range reqs {
			if i > 0 {
				p := reqs[i-1]
				if p.Time > r.Time || (p.Time == r.Time && p.ID >= r.ID) {
					t.Fatalf("rows %d,%d out of (Time, ID) order: %+v then %+v", i-1, i, p, r)
				}
			}
			if _, dup := seen[r.ID]; dup {
				t.Fatalf("duplicate id %d", r.ID)
			}
			seen[r.ID] = r
			if r.Pickup < 0 || int(r.Pickup) >= g.N() || r.Dropoff < 0 || int(r.Dropoff) >= g.N() {
				t.Fatalf("vertex out of range: %+v", r)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, reqs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCSV(&buf, g)
		if err != nil {
			t.Fatalf("re-reading written requests: %v", err)
		}
		if len(again) != len(reqs) {
			t.Fatalf("round trip kept %d of %d requests", len(again), len(reqs))
		}
		for _, r := range again {
			want, ok := seen[r.ID]
			if !ok {
				t.Fatalf("round trip invented id %d", r.ID)
			}
			if r.Time != want.Time || r.Pickup != want.Pickup || r.Dropoff != want.Dropoff {
				t.Fatalf("round trip changed %+v into %+v", want, r)
			}
		}
	})
}
