package workload

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/roadnet"
	"repro/internal/sim"
)

// WriteCSV writes requests as "id,time,pickup,dropoff" rows with a header.
func WriteCSV(w io.Writer, reqs []sim.Request) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"id", "time", "pickup", "dropoff"}); err != nil {
		return err
	}
	for i := range reqs {
		r := &reqs[i]
		rec := []string{
			strconv.FormatInt(r.ID, 10),
			strconv.FormatFloat(r.Time, 'f', 3, 64),
			strconv.FormatInt(int64(r.Pickup), 10),
			strconv.FormatInt(int64(r.Dropoff), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV loads requests written by WriteCSV (or hand-prepared data in the
// same format) and returns them sorted by time.
func ReadCSV(r io.Reader, g *roadnet.Graph) ([]sim.Request, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading header: %w", err)
	}
	if header[0] != "id" {
		return nil, fmt.Errorf("workload: unexpected header %v", header)
	}
	var reqs []sim.Request
	seen := make(map[int64]int)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", line, err)
		}
		id, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad id %q", line, rec[0])
		}
		t, err := strconv.ParseFloat(rec[1], 64)
		if err != nil || math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, fmt.Errorf("workload: line %d: bad time %q", line, rec[1])
		}
		pu, err := strconv.ParseInt(rec[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad pickup %q", line, rec[2])
		}
		do, err := strconv.ParseInt(rec[3], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad dropoff %q", line, rec[3])
		}
		if pu < 0 || int(pu) >= g.N() || do < 0 || int(do) >= g.N() {
			return nil, fmt.Errorf("workload: line %d: vertex out of range", line)
		}
		// IDs are load-bearing for ordering: replay and the ingress gateway
		// both break timestamp ties by ID, and a duplicate would make the
		// multi-producer order nondeterministic (the gateway falls through
		// to its scheduling-dependent admission tick). Reject rather than
		// silently lose the bit-identical replay guarantee.
		if prev, ok := seen[id]; ok {
			return nil, fmt.Errorf("workload: line %d: duplicate id %d (first on line %d)", line, id, prev)
		}
		seen[id] = line
		reqs = append(reqs, sim.Request{ID: id, Time: t, Pickup: roadnet.VertexID(pu), Dropoff: roadnet.VertexID(do)})
	}
	// (Time, ID) rather than stable-by-Time: real traces have coarse
	// (second-granularity) timestamps, so ties are routine, and breaking
	// them by ID makes the replay order independent of CSV row order and
	// identical to the ingress gateway's stamped release order — which is
	// what keeps gateway runs bit-identical to direct replay.
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Time != reqs[j].Time {
			return reqs[i].Time < reqs[j].Time
		}
		return reqs[i].ID < reqs[j].ID
	})
	return reqs, nil
}
