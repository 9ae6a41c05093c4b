package serve

import (
	"errors"
	"time"

	"dsgl/internal/engine"
)

// errQueueFull sheds a request because the pending-queue bound was hit.
var errQueueFull = errors.New("serve: batch queue full")

// pendingReq is one admitted request waiting for its batch to flush.
type pendingReq struct {
	obs  []engine.Observation
	seed uint64
	done chan execResult // buffered(1); exactly one result is delivered
}

// execResult is what a flushed request receives: its inference result (a
// detached copy, safe to read after the engine state is recycled), the
// size of the batch it rode in, and any execution error (shared by every
// member of the batch — validation already happened at admission).
type execResult struct {
	res       *engine.Result
	batchSize int
	err       error
}

// batchGroup holds the pending requests of one registered model entry,
// whatever they clamp: RunBatch resolves each member's own clamp plan,
// which EnsurePlan warmed at admission. The group's first request creates
// it and arms the flush timer; whoever flushes it — the timer, the request
// that fills MaxBatch, a request with batching off, or Drain — removes it
// from Server.groups. So a group exists only while it has pending
// requests, and every member runs on the entry it was validated against:
// a request for a model swapped or evicted since then starts a new group.
type batchGroup struct {
	entry   *ModelEntry
	pending []*pendingReq
	timer   *time.Timer
}

// enqueue admits one validated request into its model's batch group and
// blocks until the group flushes and the anneal completes. It returns
// errQueueFull (never blocking) when the pending bound is hit.
func (s *Server) enqueue(entry *ModelEntry, obs []engine.Observation, seed uint64) execResult {
	p := &pendingReq{obs: obs, seed: seed, done: make(chan execResult, 1)}

	s.groupMu.Lock()
	if s.queued >= s.cfg.MaxQueue {
		s.groupMu.Unlock()
		return execResult{err: errQueueFull}
	}
	s.queued++
	s.m.queueDepth.Set(float64(s.queued))
	g := s.groups[entry]
	if g == nil {
		g = &batchGroup{entry: entry}
		s.groups[entry] = g
	}
	g.pending = append(g.pending, p)
	flush := len(g.pending) >= s.cfg.MaxBatch || s.cfg.BatchWindow <= 0 || s.draining.Load()
	switch {
	case flush:
		// Full batch, batching disabled, or draining: flush now, on this
		// request's goroutine.
		s.detachLocked(g)
	case len(g.pending) == 1:
		g.timer = time.AfterFunc(s.cfg.BatchWindow, func() { s.flushGroup(g) })
	}
	s.groupMu.Unlock()

	if flush {
		s.execBatch(g)
	}
	return <-p.done
}

// detachLocked ends g's life as a batch group: it leaves Server.groups,
// its timer is disarmed and its requests leave the queue count. The caller
// holds s.groupMu and then owns g.pending.
func (s *Server) detachLocked(g *batchGroup) {
	if g.timer != nil {
		g.timer.Stop()
	}
	delete(s.groups, g.entry)
	s.queued -= len(g.pending)
	s.m.queueDepth.Set(float64(s.queued))
}

// flushGroup is the timer path. A timer that fired while another path was
// flushing its group finds the group gone (or a newer one in its place)
// and does nothing.
func (s *Server) flushGroup(g *batchGroup) {
	s.groupMu.Lock()
	live := s.groups[g.entry] == g
	if live {
		s.detachLocked(g)
	}
	s.groupMu.Unlock()
	if live {
		s.execBatch(g)
	}
}

// flushAll force-flushes every group — the drain path. Runs the flushed
// batches synchronously so that when flushAll returns, every request that
// was queued at drain start has its result delivered.
func (s *Server) flushAll() {
	s.groupMu.Lock()
	groups := make([]*batchGroup, 0, len(s.groups))
	for _, g := range s.groups {
		s.detachLocked(g)
		groups = append(groups, g)
	}
	s.groupMu.Unlock()
	for _, g := range groups {
		s.execBatch(g)
	}
}

// execBatch runs one detached group, a single request included, through
// RunBatch with each request's own seed, which the engine guarantees
// bit-identical to serving each request alone (the serving determinism
// contract), and delivers each member's result.
func (s *Server) execBatch(g *batchGroup) {
	batch := g.pending
	reqs := make([]engine.Request, len(batch))
	for i, p := range batch {
		reqs[i] = engine.Request{Obs: p.obs, Seed: p.seed}
	}
	results, err := g.entry.Model.Engine().RunBatch(reqs, s.cfg.Workers)
	if err != nil {
		s.m.inferErrors.Add(uint64(len(batch)))
	}
	if len(batch) == 1 {
		s.m.solo.Inc()
	} else {
		s.m.batches.Inc()
		s.m.coalesced.Add(uint64(len(batch)))
	}
	s.m.batchSize.Observe(float64(len(batch)))
	for i, p := range batch {
		out := execResult{batchSize: len(batch), err: err}
		if err == nil {
			out.res = results[i]
		}
		p.done <- out
	}
}
