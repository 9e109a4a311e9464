//go:build !race

package dispatch

// mipRequests is how much of the 120-request workload
// TestSimulationAllAlgorithms/mip runs: all of it without the race
// detector.
const mipRequests = 120
