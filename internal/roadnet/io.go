package roadnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary graph format:
//
//	magic   "RNG1" (4 bytes)
//	n       uint32  vertex count
//	m       uint32  undirected edge count
//	coords  n x (float64 x, float64 y)
//	edges   m x (uint32 u, uint32 v, float64 w)
//
// All integers little-endian. The format stores each undirected edge once.
const graphMagic = "RNG1"

// WriteTo serializes the graph in the RNG1 binary format.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		written += int64(binary.Size(v))
		return nil
	}
	if _, err := bw.WriteString(graphMagic); err != nil {
		return written, err
	}
	written += int64(len(graphMagic))
	if err := put(uint32(g.N())); err != nil {
		return written, err
	}
	if err := put(uint32(g.M())); err != nil {
		return written, err
	}
	for i := 0; i < g.N(); i++ {
		if err := put(g.xs[i]); err != nil {
			return written, err
		}
		if err := put(g.ys[i]); err != nil {
			return written, err
		}
	}
	for u := 0; u < g.N(); u++ {
		ts, ws := g.Neighbors(VertexID(u))
		for i, t := range ts {
			if VertexID(u) < t { // each undirected edge once
				if err := put(uint32(u)); err != nil {
					return written, err
				}
				if err := put(uint32(t)); err != nil {
					return written, err
				}
				if err := put(ws[i]); err != nil {
					return written, err
				}
			}
		}
	}
	return written, bw.Flush()
}

// ReadGraph deserializes a graph written by WriteTo.
func ReadGraph(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(graphMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("roadnet: reading magic: %w", err)
	}
	if string(magic) != graphMagic {
		return nil, fmt.Errorf("roadnet: bad magic %q, want %q", magic, graphMagic)
	}
	var n, m uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("roadnet: reading vertex count: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("roadnet: reading edge count: %w", err)
	}
	const maxReasonable = 1 << 28
	if n > maxReasonable || m > maxReasonable {
		return nil, fmt.Errorf("roadnet: implausible sizes n=%d m=%d", n, m)
	}
	// Vertices and edges are appended as they are read, so a header that
	// overstates the counts costs no more memory than the input holds.
	b := NewBuilder(0)
	for i := uint32(0); i < n; i++ {
		var x, y float64
		if err := binary.Read(br, binary.LittleEndian, &x); err != nil {
			return nil, fmt.Errorf("roadnet: reading coord %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &y); err != nil {
			return nil, fmt.Errorf("roadnet: reading coord %d: %w", i, err)
		}
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return nil, fmt.Errorf("roadnet: non-finite coordinate at vertex %d", i)
		}
		b.AddVertex(x, y)
	}
	for i := uint32(0); i < m; i++ {
		var u, v uint32
		var w float64
		if err := binary.Read(br, binary.LittleEndian, &u); err != nil {
			return nil, fmt.Errorf("roadnet: reading edge %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
			return nil, fmt.Errorf("roadnet: reading edge %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &w); err != nil {
			return nil, fmt.Errorf("roadnet: reading edge %d: %w", i, err)
		}
		b.AddEdge(VertexID(u), VertexID(v), w)
	}
	return b.Build()
}
