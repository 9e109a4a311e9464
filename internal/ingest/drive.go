package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dispatch"
	"repro/internal/faults"
	"repro/internal/sim"
)

// Source is a pull-based request stream, time-sorted, not required to be
// safe for concurrent use — Drive pulls it from one goroutine.
// workload.Generator implements it; SliceSource adapts a prepared slice.
type Source interface {
	Next() (sim.Request, bool)
}

// SliceSource streams a prepared request slice.
type SliceSource []sim.Request

// Next pops the stream head.
func (s *SliceSource) Next() (sim.Request, bool) {
	if len(*s) == 0 {
		return sim.Request{}, false
	}
	req := (*s)[0]
	*s = (*s)[1:]
	return req, true
}

// DriveStats accounts for every request Drive pulled from its source, so
// callers (and the faults invariant checker) can reconcile the gateway's
// admission counts against what actually entered the system.
type DriveStats struct {
	Sourced   int // requests pulled from the source
	Submitted int // Producer.Submit calls made (admitted or shed at admission)
	Dropped   int // lost to injected crashes or panics before admission
	Discarded int // routed to a producer that had already died by panic
}

// Drive is the open-loop load driver: it pulls src sequentially — so the
// stream content is deterministic for a fixed source regardless of
// producer count — and fans the requests out round-robin to `producers`
// concurrent Submit goroutines, closing every producer when the stream
// ends. Each producer's sub-stream inherits the source's time order, which
// is the per-producer monotonicity Submit requires.
//
// Drive blocks until every request is submitted and every producer is
// closed; run it concurrently with gw.Drain, or call Run, which does.
//
// A producer goroutine that panics (a buggy Source-side callback, or an
// injected fault) does not deadlock the pipeline: its watermark is
// released, the requests already routed to it are discarded, and the
// panic surfaces here as an error after the remaining producers finish.
func Drive(gw *Gateway, src Source, producers int) error {
	_, err := DriveInjected(gw, src, producers, nil)
	return err
}

// DriveInjected is Drive with a fault-injection seam: each producer
// goroutine consults its faults.ProducerHook before every submission
// (timestamp skew/collapse, crash drops, injected panics). A nil
// injector — or one with an empty plan — is the pass-through
// configuration, byte-identical in behavior to Drive.
func DriveInjected(gw *Gateway, src Source, producers int, inj *faults.Injector) (DriveStats, error) {
	if producers < 1 {
		producers = 1
	}
	handles := gw.Producers(producers)
	chans := make([]chan sim.Request, producers)
	for i := range chans {
		chans[i] = make(chan sim.Request, 64)
	}
	var submitted, dropped, discarded atomic.Int64
	errc := make(chan error, producers)
	var wg sync.WaitGroup
	for i, p := range handles {
		wg.Add(1)
		go func(idx int, ch chan sim.Request, p *Producer, hook *faults.ProducerHook) {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				errc <- fmt.Errorf("ingest: producer %d panicked: %v", idx, r)
				// Release this producer's watermark so the drain can
				// finish on the survivors' submissions, then discard
				// whatever the router had already queued for us —
				// otherwise the round-robin send blocks forever on a
				// reader that no longer exists.
				p.Close()
				for range ch {
					discarded.Add(1)
				}
			}()
			for req := range ch {
				t, act := hook.BeforeSubmit(req.Time)
				switch act {
				case faults.ActionDrop:
					dropped.Add(1)
					p.Skip(t)
				case faults.ActionPanic:
					// The triggering request is lost with the producer;
					// account for it before unwinding.
					dropped.Add(1)
					panic(fmt.Sprintf("injected producer fault at request %d", req.ID))
				default:
					req.Time = t
					p.Submit(req)
					submitted.Add(1)
				}
			}
			p.Close()
		}(i, chans[i], p, inj.Producer())
	}
	var stats DriveStats
	for i := 0; ; i++ {
		req, ok := src.Next()
		if !ok {
			break
		}
		stats.Sourced++
		chans[i%producers] <- req
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	close(errc)
	var errs []error
	for err := range errc {
		errs = append(errs, err)
	}
	stats.Submitted = int(submitted.Load())
	stats.Dropped = int(dropped.Load())
	stats.Discarded = int(discarded.Load())
	return stats, errors.Join(errs...)
}

// Run is the gateway run protocol, start to finish: stream src through gw
// from `producers` goroutines (under inj's producer hooks; nil injects
// nothing) while the stamped-order drain feeds eng, then flush the engine's
// last batch window, let the fleet finish its committed schedules, and fold
// the gateway's ingress counters into the engine's metrics. It blocks
// until all of that is done.
//
// The drive error is collected rather than discarded: an injected (or
// real) producer panic is reported after the drain instead of being lost
// in a dead goroutine — DriveInjected's recovery path closes the panicked
// producer's watermark, so the drain itself never deadlocks on it. The
// metrics are returned even alongside an error (a drive failure, or
// Engine.Drain's truncation), covering whatever did run.
func Run(gw *Gateway, eng *dispatch.Engine, src Source, producers int, inj *faults.Injector) (*sim.Metrics, DriveStats, error) {
	var ds DriveStats
	driven := make(chan error, 1)
	go func() {
		var err error
		ds, err = DriveInjected(gw, src, producers, inj)
		driven <- err
	}()
	gw.Drain(eng.Enqueue)
	driveErr := <-driven
	eng.Flush()
	drainErr := eng.Drain()
	m := eng.Metrics()
	gw.MetricsInto(m)
	if driveErr != nil {
		return m, ds, fmt.Errorf("ingest: drive: %w", driveErr)
	}
	return m, ds, drainErr
}
