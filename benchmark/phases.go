package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// openInFlight bounds the open phase's concurrency: the schedule is fixed,
// but no more than this many operations are ever outstanding.
const openInFlight = 64

// cpuSample is one reading of the closed phase's one-second sampler.
type cpuSample struct {
	at      int64 // harness clock
	docs    int64 // documents returned and oracle-correct so far
	daemons float64
	harness float64
}

// phaseStats is what one timed phase produced.
type phaseStats struct {
	phase      uint8
	start, end int64
	pubs       []opResult
	regs       []float64 // scripted registers, µs each
	unregs     []float64
	attempted  int
	failed     int
	samples    []cpuSample // closed phases
	lagMS      []float64   // open phase: start − due per operation
	maxInFly   int64
	scheduled  int     // open phase: operations the schedule held
	inFlyAt    []int32 // open phase: operations outstanding at each dispatch
}

func (ps *phaseStats) docsOK() int {
	n := 0
	for i := range ps.pubs {
		if ps.pubs[i].ok {
			n++
		}
	}
	return n
}

// opKind returns what the lane does next: scripted workloads repeat
// 4 publishes, 1 register, 1 unregister; the others only publish.
func (s *sut) opKind(step int) int {
	if !s.w.sp.scripted {
		return opPublish
	}
	switch step % scriptCycle {
	case scriptPublishes:
		return opRegister
	case scriptPublishes + 1:
		return opUnregister
	}
	return opPublish
}

const (
	opPublish = iota
	opRegister
	opUnregister
)

// laneResult collects one goroutine's share of a phase.
type laneResult struct {
	pubs      []opResult
	regs      []float64
	unregs    []float64
	attempted int
	failed    int
	lagMS     []float64
}

// do runs one scripted operation on lane p.
func (s *sut) do(ctx context.Context, p, kind int, due int64, phase uint8, out *laneResult) error {
	out.attempted++
	switch kind {
	case opPublish:
		res, err := s.publish(ctx, due, phase)
		if err != nil {
			return err
		}
		if !res.ok {
			out.failed++
		}
		out.pubs = append(out.pubs, res)
	case opRegister:
		start := s.now()
		took, err := s.scripters[p].register(ctx)
		if err != nil {
			return err
		}
		out.regs = append(out.regs, float64(took)/1e3)
		if s.traced.Load() {
			s.spans.op("register", start, s.now())
		}
	case opUnregister:
		start := s.now()
		took, err := s.scripters[p].unregister(ctx)
		if err != nil {
			return err
		}
		out.unregs = append(out.unregs, float64(took)/1e3)
		if s.traced.Load() {
			s.spans.op("unregister", start, s.now())
		}
	}
	return nil
}

func (ps *phaseStats) merge(rs []laneResult) {
	for i := range rs {
		r := &rs[i]
		ps.pubs = append(ps.pubs, r.pubs...)
		ps.regs = append(ps.regs, r.regs...)
		ps.unregs = append(ps.unregs, r.unregs...)
		ps.lagMS = append(ps.lagMS, r.lagMS...)
		ps.attempted += r.attempted
		ps.failed += r.failed
	}
}

// closedPhase runs `publishers` closed loops for dur: each sends its next
// operation when the last one returned. A sampler reads the document
// counter and the CPU accounts once a second.
func (s *sut) closedPhase(ctx context.Context, phase uint8, dur time.Duration, publishers int) (*phaseStats, error) {
	ps := &phaseStats{phase: phase, start: s.now()}
	endAt := ps.start + dur.Nanoseconds()
	var okDocs atomic.Int64
	results := make([]laneResult, publishers)
	errs := make([]error, publishers)

	stopSampler := s.startSampler(ps, &okDocs)

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			out := &results[p]
			for s.now() < endAt && ctx.Err() == nil {
				kind := s.opKind(s.lanes[p])
				s.lanes[p]++
				before := len(out.pubs)
				if errs[p] = s.do(ctx, p, kind, s.now(), phase, out); errs[p] != nil {
					s.h.fail(errs[p])
					return
				}
				if len(out.pubs) > before && out.pubs[before].ok {
					okDocs.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	stopSampler()
	ps.end = s.now()
	ps.merge(results)
	for _, err := range errs {
		if err != nil {
			return ps, err
		}
	}
	return ps, context.Cause(ctx)
}

// startSampler reads the document counter and the CPU accounts of the
// daemons (/proc/<pid>/stat) and the harness (getrusage) now and at every
// whole second after ps.start, until the returned function is called.
func (s *sut) startSampler(ps *phaseStats, okDocs *atomic.Int64) (stop func()) {
	take := func() {
		sm := cpuSample{at: s.now(), docs: okDocs.Load(), harness: selfUsage().cpuSec}
		for _, d := range s.cl.daemons {
			u, err := d.usage(false)
			if err != nil {
				s.h.fail(err)
				return
			}
			sm.daemons += u.cpuSec
		}
		ps.samples = append(ps.samples, sm)
	}
	take()
	quit := make(chan struct{})
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		for k := int64(1); ; k++ {
			select {
			case <-quit:
				return
			case <-time.After(time.Duration(ps.start + k*1e9 - s.now())):
				take()
			}
		}
	}()
	return func() {
		close(quit)
		done.Wait()
	}
}

// openPhase runs the fixed schedule: operation g is due at start + g/rate
// whatever the system does, latency counts from the due time, and at most
// openInFlight operations are outstanding (a full pipe delays the
// dispatcher, which shows as generator lag).
func (s *sut) openPhase(ctx context.Context, phase uint8, dur time.Duration, docRate float64) (*phaseStats, error) {
	opRate := docRate
	if s.w.sp.scripted {
		opRate = docRate * scriptCycle / scriptPublishes
	}
	ps := &phaseStats{phase: phase}
	ps.scheduled = int(dur.Seconds() * opRate)
	interval := 1e9 / opRate

	type job struct {
		lane, kind int
		due        int64
	}
	jobs := make(chan job)
	results := make([]laneResult, openInFlight)
	errs := make([]error, openInFlight)
	var inFly, okDocs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < openInFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := &results[i]
			for j := range jobs {
				if errs[i] != nil {
					continue // keep draining so the dispatcher never blocks
				}
				n := inFly.Add(1)
				for {
					m := atomic.LoadInt64(&ps.maxInFly)
					if n <= m || atomic.CompareAndSwapInt64(&ps.maxInFly, m, n) {
						break
					}
				}
				out.lagMS = append(out.lagMS, float64(s.now()-j.due)/1e6)
				before := len(out.pubs)
				if errs[i] = s.do(ctx, j.lane, j.kind, j.due, phase, out); errs[i] != nil {
					s.h.fail(errs[i])
				}
				if len(out.pubs) > before && out.pubs[before].ok {
					okDocs.Add(1)
				}
				inFly.Add(-1)
			}
		}(i)
	}

	ps.start = s.now()
	stopSampler := s.startSampler(ps, &okDocs)
	for g := 0; g < ps.scheduled && ctx.Err() == nil; g++ {
		due := ps.start + int64(float64(g)*interval)
		if wait := due - s.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		ps.inFlyAt = append(ps.inFlyAt, int32(inFly.Load()))
		p := g % numPublishers
		kind := s.opKind(s.lanes[p])
		s.lanes[p]++
		jobs <- job{lane: p, kind: kind, due: due}
	}
	close(jobs)
	wg.Wait()
	stopSampler()
	ps.end = s.now()
	ps.merge(results)
	for _, err := range errs {
		if err != nil {
			return ps, err
		}
	}
	return ps, context.Cause(ctx)
}

// drain waits until every event the checked documents owe has been read,
// or the deadline passes (the audit then names what is missing).
func (s *sut) drain(ctx context.Context, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		var want, got int64
		for i := range s.led.sessions {
			want += s.led.sessions[i].expCount.Load()
			got += s.led.sessions[i].gotCount.Load()
		}
		if got >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}
