// Package spatial provides the "simple grid-based spatial index" over moving
// servers described in the paper (§IV): the index is updated only when a
// vehicle crosses a cell boundary, and for each request it identifies the
// vehicles possibly within the waiting-time radius of the pickup point; the
// caller then confirms candidates against their exact locations.
package spatial

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// ObjectID identifies a moving object (a server/vehicle) in the index.
type ObjectID int32

// GridIndex partitions the bounding box of the road network into square
// cells and tracks which cell each object occupies.
//
// Safe for concurrent use: queries (Within, Len, Stats) take a read lock
// and writes (Insert, Update, Remove) a write lock, so any number of
// concurrent readers can run against a vehicle-relocation writer. The
// dispatch shards still drive their indexes from one goroutine at a time — the lock is uncontended there — but the
// index no longer relies on it, so a concurrent front door can consult
// fleet positions while position reports relocate vehicles.
// Cells are sorted ID slices rather than maps: queries dominate the
// workload (every request scans the cells under its candidate disk, while
// the index mutates only on cell crossings), and a slice walk appends in
// order with no map-iteration overhead and no per-query closure for a
// sort. Membership updates pay an O(cell population) shift, which stays
// cheap because cell populations are bounded by the auto-tuned cell size.
type GridIndex struct {
	mu         sync.RWMutex
	minX, minY float64
	cellSize   float64
	cols, rows int
	cells      [][]ObjectID
	loc        map[ObjectID]int // object -> cell index
	moves      uint64           // cell-crossing updates, for stats
	updates    uint64           // total Update calls
}

// NewGridIndex creates an index covering [minX,maxX] x [minY,maxY] with the
// given cell size in meters.
func NewGridIndex(minX, minY, maxX, maxY, cellSize float64) (*GridIndex, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("spatial: cell size must be positive, got %v", cellSize)
	}
	if maxX < minX || maxY < minY {
		return nil, fmt.Errorf("spatial: invalid bounds (%v,%v)-(%v,%v)", minX, minY, maxX, maxY)
	}
	cols := int((maxX-minX)/cellSize) + 1
	rows := int((maxY-minY)/cellSize) + 1
	g := &GridIndex{
		minX:     minX,
		minY:     minY,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make([][]ObjectID, cols*rows),
		loc:      make(map[ObjectID]int),
	}
	return g, nil
}

func (g *GridIndex) cellOf(x, y float64) int {
	cx := int((x - g.minX) / g.cellSize)
	cy := int((y - g.minY) / g.cellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// Len returns the number of indexed objects.
func (g *GridIndex) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.loc)
}

// Insert adds an object at (x, y). Inserting an existing ID is an Update.
func (g *GridIndex) Insert(id ObjectID, x, y float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.loc[id]; ok {
		g.update(id, x, y)
		return
	}
	c := g.cellOf(x, y)
	g.cellInsert(c, id)
	g.loc[id] = c
}

// cellInsert adds id to cell c, keeping the cell sorted.
func (g *GridIndex) cellInsert(c int, id ObjectID) {
	cell := g.cells[c]
	i, _ := slices.BinarySearch(cell, id)
	cell = append(cell, 0)
	copy(cell[i+1:], cell[i:])
	cell[i] = id
	g.cells[c] = cell
}

// cellRemove deletes id from cell c if present.
func (g *GridIndex) cellRemove(c int, id ObjectID) {
	cell := g.cells[c]
	if i, ok := slices.BinarySearch(cell, id); ok {
		g.cells[c] = append(cell[:i], cell[i+1:]...)
	}
}

// Update moves an object to (x, y). The index mutates only when the object
// crosses a cell boundary, which is what keeps maintenance cheap for
// vehicles reporting locations every 20–60 seconds.
func (g *GridIndex) Update(id ObjectID, x, y float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.update(id, x, y)
}

// update is Update under a held write lock.
func (g *GridIndex) update(id ObjectID, x, y float64) {
	g.updates++
	old, ok := g.loc[id]
	c := g.cellOf(x, y)
	if ok && old == c {
		return
	}
	if ok {
		g.cellRemove(old, id)
	}
	g.cellInsert(c, id)
	g.loc[id] = c
	g.moves++
}

// Remove deletes an object from the index. Removing an absent ID is a no-op.
func (g *GridIndex) Remove(id ObjectID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.loc[id]; ok {
		g.cellRemove(c, id)
		delete(g.loc, id)
	}
}

// Within appends to dst the IDs of all objects whose cells intersect the
// disk of radius r around (x, y), and returns the extended slice. This is a
// superset of the objects truly within r (cell-level filtering); the caller
// confirms candidates, matching the paper's "identifies the vehicles
// possibly within w of the request, asks the vehicle's actual location, and
// then tests".
//
// The appended candidates are in ascending ObjectID order, so callers that
// need deterministic iteration (tie-breaking across runs, or merging the
// per-shard results of a partitioned fleet) can consume them directly
// without re-sorting.
func (g *GridIndex) Within(dst []ObjectID, x, y, r float64) []ObjectID {
	if r < 0 {
		return dst
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	start := len(dst)
	cx0 := int(math.Floor((x - r - g.minX) / g.cellSize))
	cx1 := int(math.Floor((x + r - g.minX) / g.cellSize))
	cy0 := int(math.Floor((y - r - g.minY) / g.cellSize))
	cy1 := int(math.Floor((y + r - g.minY) / g.cellSize))
	if cx0 < 0 {
		cx0 = 0
	}
	if cy0 < 0 {
		cy0 = 0
	}
	if cx1 >= g.cols {
		cx1 = g.cols - 1
	}
	if cy1 >= g.rows {
		cy1 = g.rows - 1
	}
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			dst = append(dst, g.cells[cy*g.cols+cx]...)
		}
	}
	if cy1 == cy0 && cx1 == cx0 {
		return dst // a single sorted cell: already in order
	}
	// Each cell is sorted, so the appended run is a small number of sorted
	// runs; the pattern-defeating sort exploits that.
	slices.Sort(dst[start:])
	return dst
}

// Stats returns the total number of Update calls and how many of them
// actually crossed a cell boundary.
func (g *GridIndex) Stats() (updates, crossings uint64) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.updates, g.moves
}
