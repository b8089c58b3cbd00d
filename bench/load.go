package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"reramtest/internal/stats"
)

// span is one timed call from the benchmark into the stack: a client request
// (ID = its sequence number in the segment, per client) or a monitoring tick.
// Times are nanoseconds since the segment started.
type span struct {
	Name    string `json:"name"`
	Segment int    `json:"segment"`
	Client  int    `json:"client"` // -1 for a tick
	ID      int    `json:"id"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// segment is what one timed stretch of closed-loop traffic measured.
type segment struct {
	length  time.Duration // how long requests were started for
	wall    time.Duration // until the last of them was answered
	ledger  ledger
	latMs   []float64       // ok requests only
	sentAt  []time.Duration // when the request of latMs[i] was sent, since the segment started
	tickMs  []float64       // Frontend.Tick wall times, in order
	mallocs uint64          // runtime.MemStats deltas across the segment, whole process
	bytes   uint64
	gcs     uint32
	gcPause time.Duration
	spans   []span // traced segments only
}

func (g segment) rowsPerS() float64 { return float64(g.ledger.rows) / g.wall.Seconds() }

func (g segment) tickShare() float64 {
	var sum float64
	for _, ms := range g.tickMs {
		sum += ms
	}
	return sum / 1e3 / g.wall.Seconds()
}

// runSegment drives the stack for d with the fixed closed loop: each client
// sends its next scheduled request as soon as the previous one is answered,
// and a request in flight at the deadline is completed and counted. With
// traced set every request and tick is also kept as a span.
func (s *stack) runSegment(d time.Duration, traced bool) segment {
	seg := segment{length: d}
	type clientLog struct {
		ledger ledger
		latMs  []float64
		sentAt []time.Duration
		spans  []span
	}
	logs := make([]clientLog, clients)
	// room for the whole segment at the previous one's rate and half again, so
	// that the logs neither allocate nor grow the live heap while it is timed
	room := int(1.5 * s.rate * d.Seconds())
	for c := range logs {
		logs[c].latMs = make([]float64, 0, room)
		logs[c].sentAt = make([]time.Duration, 0, room)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := &logs[c]
			ctx := context.Background()
			for t0, n := time.Now(), 0; t0.Before(until); n++ {
				i := s.cursor[c]
				s.cursor[c] = (i + clients) % len(s.reqs)
				o := s.call(ctx, i)
				t1 := time.Now()
				log.ledger.add(o, s.w.rows)
				if o.Kind == "ok" {
					log.latMs = append(log.latMs, float64(t1.Sub(t0))/1e6)
					log.sentAt = append(log.sentAt, t0.Sub(start))
				}
				if traced {
					log.spans = append(log.spans, span{"request", 0, c, n, int64(t0.Sub(start)), int64(t1.Sub(start))})
				}
				t0 = t1
			}
		}(c)
	}
	if s.w.tick > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// ticks fall half-way between multiples of the cadence, so that every
			// window quiet cuts (a multiple of the cadence long) holds as many
			for n := 0; ; n++ {
				due := start.Add(time.Duration(n)*s.w.tick + s.w.tick/2)
				if !due.Before(until) {
					return
				}
				time.Sleep(time.Until(due))
				t0 := time.Now()
				s.front.Tick()
				t1 := time.Now()
				seg.tickMs = append(seg.tickMs, float64(t1.Sub(t0))/1e6)
				if traced {
					seg.spans = append(seg.spans, span{"tick", 0, -1, n, int64(t0.Sub(start)), int64(t1.Sub(start))})
				}
			}
		}()
	}
	wg.Wait()
	seg.wall = time.Since(start)

	runtime.ReadMemStats(&after)
	seg.mallocs = after.Mallocs - before.Mallocs
	seg.bytes = after.TotalAlloc - before.TotalAlloc
	seg.gcs = after.NumGC - before.NumGC
	seg.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for _, log := range logs {
		seg.ledger.merge(log.ledger)
		seg.latMs = append(seg.latMs, log.latMs...)
		seg.sentAt = append(seg.sentAt, log.sentAt...)
		seg.spans = append(seg.spans, log.spans...)
	}
	s.rate = float64(seg.ledger.sent) / clients / seg.wall.Seconds()
	s.record(seg.ledger)
	return seg
}

// quiet is the statistic behind the end-to-end timings and rates. The other
// tenants of a shared host slow the machine for seconds at a time and never
// speed it up, so a median over a whole run mostly measures them (and moved
// by 15-45 % between runs of the same code). quiet cuts the segment into
// windows, ranks them by requests answered and keeps the best share of them:
// it returns the latencies of the kept windows' requests and the time those
// windows add up to. A request belongs to the window it was sent in, so the
// ones still in flight when the segment ends have a window too. A window is
// long against the workload's own rhythms (ticks, collections), so that the
// ranking finds the host's quiet moments and not the program's.
func (g segment) quiet(window time.Duration, share float64) (latMs []float64, wall time.Duration) {
	window = min(window, g.length)
	n := int(g.length / window)
	windows := make([][]float64, n)
	for i, at := range g.sentAt {
		if w := int(at / window); w < n { // the rest of a length that is no multiple of window is left out
			windows[w] = append(windows[w], g.latMs[i])
		}
	}
	sort.SliceStable(windows, func(a, b int) bool { return len(windows[a]) > len(windows[b]) })
	kept := max(1, int(math.Round(share*float64(n))))
	for _, w := range windows[:kept] {
		latMs = append(latMs, w...)
	}
	return latMs, time.Duration(kept) * window
}

func median(vs []float64) float64 { return stats.Quantile(vs, 0.5) }

// overSegments is the traced run's statistic for timings and rates: the median
// over its segments of a per-segment value.
func overSegments(segs []segment, f func(segment) float64) float64 {
	vs := make([]float64, len(segs))
	for i, g := range segs {
		vs[i] = f(g)
	}
	return median(vs)
}
