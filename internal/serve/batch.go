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

// batchGroup accumulates requests that share one (model, clamp-bitmask)
// key. The first pending request arms the flush timer; reaching MaxBatch
// flushes immediately on the arriving request's goroutine. Requests whose
// clamp masks differ never share a group — they run in distinct engine
// calls (possibly concurrently), so a coalesced batch always shares one
// compiled clamp plan.
type batchGroup struct {
	s       *Server
	entry   *ModelEntry
	pending []*pendingReq
	timer   *time.Timer
}

// groupKey identifies a batch group: model name plus the packed clamp
// bitmask of the request's observation indices (the same key shape the
// engine's plan cache uses, so group-mates are plan-mates by construction).
func groupKey(model string, obs []engine.Observation, dim int) string {
	buf := make([]byte, len(model)+1+(dim+7)/8)
	n := copy(buf, model)
	buf[n] = 0 // model names never contain NUL; Registry.Register rejects them
	mask := buf[n+1:]
	for _, o := range obs {
		mask[o.Index>>3] |= 1 << (o.Index & 7)
	}
	return string(buf)
}

// enqueue admits one validated request into its batch group and blocks
// until the group flushes and the anneal completes. It returns errQueueFull
// (never blocking) when the pending bound is hit.
func (s *Server) enqueue(key string, entry *ModelEntry, obs []engine.Observation, seed uint64) execResult {
	p := &pendingReq{obs: obs, seed: seed, done: make(chan execResult, 1)}

	s.groupMu.Lock()
	if s.queued >= s.cfg.MaxQueue {
		s.groupMu.Unlock()
		return execResult{err: errQueueFull}
	}
	s.queued++
	s.m.queueDepth.Set(float64(s.queued))
	g, ok := s.groups[key]
	if !ok {
		g = &batchGroup{s: s, entry: entry}
		s.groups[key] = g
	}
	g.pending = append(g.pending, p)
	var flush []*pendingReq
	switch {
	case len(g.pending) >= s.cfg.MaxBatch || s.cfg.BatchWindow <= 0 || s.draining.Load():
		// Full batch, batching disabled, or draining: flush now, on this
		// request's goroutine.
		flush = g.takeLocked()
	case len(g.pending) == 1:
		// First pending request arms the group's flush timer.
		g.timer = time.AfterFunc(s.cfg.BatchWindow, func() { s.flushGroup(g) })
	}
	s.groupMu.Unlock()

	if flush != nil {
		s.execBatch(entry, flush)
	}
	return <-p.done
}

// takeLocked detaches the group's pending requests and disarms its timer.
// Caller holds s.groupMu.
func (g *batchGroup) takeLocked() []*pendingReq {
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	batch := g.pending
	g.pending = nil
	g.s.queued -= len(batch)
	g.s.m.queueDepth.Set(float64(g.s.queued))
	return batch
}

// flushGroup flushes whatever the group has pending (timer path).
func (s *Server) flushGroup(g *batchGroup) {
	s.groupMu.Lock()
	batch := g.takeLocked()
	entry := g.entry
	s.groupMu.Unlock()
	if len(batch) > 0 {
		s.execBatch(entry, batch)
	}
}

// flushAll force-flushes every group — the drain path. Runs the flushed
// batches synchronously so that when flushAll returns, every request that
// was queued at drain start has its result delivered.
func (s *Server) flushAll() {
	s.groupMu.Lock()
	type work struct {
		entry *ModelEntry
		batch []*pendingReq
	}
	var pending []work
	for _, g := range s.groups {
		if b := g.takeLocked(); len(b) > 0 {
			pending = append(pending, work{g.entry, b})
		}
	}
	s.groupMu.Unlock()
	for _, w := range pending {
		s.execBatch(w.entry, w.batch)
	}
}

// execBatch runs one flushed batch through the engine and delivers each
// member's result. A single request runs the solo seeded entry point; two
// or more run RunBatch with each request's own seed, which the engine
// guarantees bit-identical to the solo calls (the serving determinism
// contract).
func (s *Server) execBatch(entry *ModelEntry, batch []*pendingReq) {
	eng := entry.Model.Engine()
	if len(batch) == 1 {
		p := batch[0]
		res, err := eng.InferSeeded(p.obs, p.seed)
		if err != nil {
			s.m.inferErrors.Inc()
		}
		s.m.solo.Inc()
		s.m.batchSize.Observe(1)
		p.done <- execResult{res: res, batchSize: 1, err: err}
		return
	}
	reqs := make([]engine.Request, len(batch))
	for i, p := range batch {
		reqs[i] = engine.Request{Obs: p.obs, Seed: p.seed}
	}
	results, err := eng.RunBatch(reqs, s.cfg.Workers)
	if err != nil {
		s.m.inferErrors.Add(uint64(len(batch)))
	}
	s.m.batches.Inc()
	s.m.coalesced.Add(uint64(len(batch)))
	s.m.batchSize.Observe(float64(len(batch)))
	for i, p := range batch {
		out := execResult{batchSize: len(batch), err: err}
		if err == nil {
			out.res = results[i]
		}
		p.done <- out
	}
}
