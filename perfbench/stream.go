package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"dsgl"
	"dsgl/internal/engine"
)

const (
	// streamSessions is the number of closed-loop stream clients, one per
	// vCPU of the host the benchmark was sized on.
	streamSessions = 2
	// streamTracedTicks is the traced run's fixed tick count per session
	// (each pass): two laps of the 1024-tick sliding-coverage sequence.
	streamTracedTicks = 2048
	// longTickFactor marks a warm tick as long when it takes this many
	// times the median warm tick's steps.
	longTickFactor = 10
)

// runStream is stream-traffic16: streamSessions long-lived sessions on the
// N=16 model, each a closed-loop client ticking StreamSession.
// NextObservations over the sliding-coverage sequence, offset by half the
// sequence so they hold different clamp patterns. Every tick warm-starts
// from the previous equilibrium; every subTicks ticks the clamp pattern
// shifts and its plan is delta-compiled or found in the plan LRU.
func runStream(rc *runConfig, rep *report) error {
	var ds *dsgl.Dataset
	var m *dsgl.Model
	setup, err := timeSetups(trafficSetupReps, func(i int) (err error) {
		ds, m, err = trafficSetup(rc.tr, i, 16, rc.seed)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, trafficSetupReps)
	if rc.tr != nil {
		if err := trafficLedger(rc, rep, ds, m, trafficSetupReps); err != nil {
			return err
		}
	}

	_, test := ds.Split()
	seq := slidingCoverage(m, test)
	base := rc.rng(4).IntN(len(seq))
	sessions := make([]*streamClient, streamSessions)
	cold := make([]float64, streamSessions)
	for i := range sessions {
		s := &streamClient{ss: m.OpenStream(), seq: seq, offset: (base + i*len(seq)/streamSessions) % len(seq)}
		defer s.ss.Close()
		// The warm-up op: each session's cold first tick, which long
		// sessions pay once; it is reported only as engine.cold_tick_ms.
		d, _, err := s.tick()
		if err != nil {
			return err
		}
		cold[i] = ms(d)
		sessions[i] = s
	}
	runtime.GC()

	var p *streamPass
	if rc.tr != nil {
		d0, f0 := m.Engine().PlanDeltaStats()
		h0, x0 := m.PlanCacheStats()
		m0 := readMem()
		plain := runStreamPass(sessions, nil, streamTracedTicks, time.Time{})
		rep.setGC(memDelta(m0, readMem(), len(plain.lat)), len(plain.lat))
		runtime.GC()
		p = runStreamPass(sessions, rc.tr, streamTracedTicks, time.Time{})
		d1, f1 := m.Engine().PlanDeltaStats()
		h1, x1 := m.PlanCacheStats()

		// Step counts repeat exactly at a given seed: both passes run a
		// fixed tick sequence.
		steps := append(append([]float64(nil), plain.steps...), p.steps...)
		warm := median(steps)
		long := 0
		for _, s := range steps {
			if s > longTickFactor*warm {
				long++
			}
		}
		rep.set("engine.warm_steps_p50", warm, len(steps))
		rep.set("engine.long_tick_ratio", float64(long)/float64(len(steps)), len(steps))
		same, shift := p.split()
		rep.set("engine.same_tick_ms", median(same), len(same))
		rep.set("engine.shift_tick_ms", median(shift), len(shift))
		rep.set("engine.plan_delta_hit_ratio", ratio(float64(d1-d0), float64(d1-d0+f1-f0)), int(d1-d0+f1-f0))
		rep.set("engine.plan_hit_ratio", ratio(float64(h1-h0), float64(h1-h0+x1-x0)), int(h1-h0+x1-x0))
		rep.set("engine.cold_tick_ms", median(cold), len(cold))
		rep.set("trace.overhead_ratio", p.wall.Seconds()/plain.wall.Seconds()-1, len(p.lat)+len(plain.lat))
		rep.attempted += len(plain.lat)
		rep.failed += plain.failed
	} else {
		m0 := readMem()
		p = runStreamPass(sessions, nil, math.MaxInt, time.Now().Add(rc.seconds))
		rep.set("max_rss_mb", maxRSSMB(), 1)
		rep.record["gc"] = memDelta(m0, readMem(), len(p.lat))
		rep.set("ops_per_s", float64(len(p.lat)-p.failed)/p.wall.Seconds(), len(p.lat))
		if err := rep.latencies(rc, opLog{ms: p.lat, at: p.at}, rc.seconds); err != nil {
			return err
		}
		// Cold first ticks ran before the timed phase; none is a sample,
		// so none can reach the tail.
		rep.record["ops"] = len(p.lat)
		rep.record["cold_tick_ms"] = cold
	}
	rep.attempted += len(p.lat)
	rep.failed += p.failed
	return checkStream(rep, m, sessions)
}

// streamClient is one stream session and the history the replay check
// needs.
type streamClient struct {
	ss     *dsgl.StreamSession
	seq    [][]engine.Observation
	offset int
	// hashes holds every tick's voltage hash, cold first tick included.
	hashes []uint64
}

// obsAt is the observation set of the session's tick t.
func (s *streamClient) obsAt(t int) []engine.Observation {
	return s.seq[(s.offset+t)%len(s.seq)]
}

// shifted reports whether tick t clamps a different pattern than tick
// t-1: the clamp block advances at every window, each subTicks ticks.
func (s *streamClient) shifted(t int) bool {
	return t > 0 && (s.offset+t)%len(s.seq)/subTicks != (s.offset+t-1)%len(s.seq)/subTicks
}

// tick runs the session's next tick and records its voltage hash.
func (s *streamClient) tick() (time.Duration, *engine.Result, error) {
	t := len(s.hashes)
	start := time.Now()
	res, _, err := s.ss.NextObservations(s.obsAt(t))
	d := time.Since(start)
	if err != nil {
		return d, nil, err
	}
	s.hashes = append(s.hashes, voltageHash(res.Voltage))
	return d, res, nil
}

// streamPass is the outcome of one pass of every session.
type streamPass struct {
	lat    []float64       // ms per tick; failedMs on failure
	at     []time.Duration // when each tick began, from the pass start
	steps  []float64       // steps per good tick
	shift  []bool          // per tick: the clamp pattern changed
	failed int
	wall   time.Duration
}

// split returns the latencies of good ticks that kept the clamp pattern
// and of those that changed it.
func (p *streamPass) split() (same, shift []float64) {
	for i, l := range p.lat {
		if l == failedMs {
			continue
		}
		if p.shift[i] {
			shift = append(shift, l)
		} else {
			same = append(same, l)
		}
	}
	return same, shift
}

// runStreamPass ticks every session on its own goroutine until each has
// run maxTicks ticks or the deadline passes. A tick fails on an error or
// an unsettled result.
func runStreamPass(sessions []*streamClient, tr *tracer, maxTicks int, deadline time.Time) *streamPass {
	parts := make([]streamPass, len(sessions))
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *streamClient) {
			defer wg.Done()
			p := &parts[i]
			for n := 0; n < maxTicks && (deadline.IsZero() || time.Now().Before(deadline)); n++ {
				t := len(s.hashes)
				id := tr.begin("dsgl.stream_tick", i<<32|t, 0)
				at := time.Since(start)
				d, res, err := s.tick()
				tr.end(id)
				p.at = append(p.at, at)
				p.shift = append(p.shift, s.shifted(t))
				if err != nil { // the session's state is now undefined
					p.failed++
					p.lat = append(p.lat, failedMs)
					return
				}
				if !res.Settled {
					p.failed++
					p.lat = append(p.lat, failedMs)
					continue
				}
				p.lat = append(p.lat, ms(d))
				p.steps = append(p.steps, float64(res.Steps))
			}
		}(i, s)
	}
	wg.Wait()
	out := &streamPass{wall: time.Since(start)}
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.at = append(out.at, p.at...)
		out.steps = append(out.steps, p.steps...)
		out.shift = append(out.shift, p.shift...)
		out.failed += p.failed
	}
	return out
}

// checkStream replays every session's ticks through a fresh OpenStream;
// each tick must reproduce the session's voltages bit for bit. Tick t runs
// at seed BaseSeed+t from the previous tick's state, and delta-compiled
// plans equal full compiles, so nothing else may change the result.
func checkStream(rep *report, m *dsgl.Model, sessions []*streamClient) error {
	bad := make([]int, len(sessions))
	errs := make([]error, len(sessions))
	parallel(len(sessions), len(sessions), func(i int) {
		s := sessions[i]
		fresh := &streamClient{ss: m.OpenStream(), seq: s.seq, offset: s.offset}
		defer fresh.ss.Close()
		for t, want := range s.hashes {
			if _, _, err := fresh.tick(); err != nil {
				errs[i] = err
				return
			}
			if fresh.hashes[t] != want {
				bad[i]++
			}
		}
	})
	ticks := 0
	for i, s := range sessions {
		if errs[i] != nil {
			return fmt.Errorf("check: replay session %d: %w", i, errs[i])
		}
		if bad[i] > 0 {
			rep.failed += bad[i]
			rep.mismatch("session %d: %d of %d replayed ticks differ", i, bad[i], len(s.hashes))
		}
		ticks += len(s.hashes)
	}
	rep.record["replayed_ticks"] = ticks
	return nil
}

// voltageHash is FNV-1a over the bits of a voltage vector.
func voltageHash(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		b := math.Float64bits(x)
		for k := 0; k < 64; k += 8 {
			h ^= (b >> k) & 0xff
			h *= 1099511628211
		}
	}
	return h
}
