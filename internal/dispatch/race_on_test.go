//go:build race

package dispatch

// mipRequests under the race detector: the MIP solver is single-threaded
// arithmetic the detector slows ~20x for nothing, and at 120 requests that
// one subtest was ~5.5 of the package's ~7.5 race minutes, close to go
// test's 10-minute timeout. 30 requests still drive the engine around it.
const mipRequests = 30
