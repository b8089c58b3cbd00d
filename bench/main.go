// Command bench is the repository's benchmark: it builds the real serving +
// concurrent-test stack in-process, drives it with closed-loop traffic on
// four named workloads, checks every answer path for correctness and prints
// absolute end-to-end and per-layer numbers. README.md in this directory is
// the glossary; BENCHMARK.json at the repository root is the contract.
//
//	go run ./bench --workload lenet5_batch --seed 1 --seconds 30 --trace 0
//	go run ./bench -seed 1 > a.json          (every workload, both runs)
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"reramtest/internal/reram"
	"reramtest/internal/stats"
)

// metricDef is one row of the contract: BENCHMARK.json carries the same
// names, units, directions and bounds (bench_test.go holds the two together).
type metricDef struct {
	name   string
	unit   string
	higher bool    // better direction
	bound  float64 // end-to-end only: share of the baseline it may worsen by
}

var endToEnd = []metricDef{
	{"rows_per_s", "rows/s", true, 0.25},
	{"lat_p50_ms", "ms", false, 0.25},
	{"allocs_per_req", "count", false, 0.02},
	{"kb_per_req", "KiB", false, 0.05},
	{"setup_s", "s", false, 0.25},
}

var perLayer = []metricDef{
	{name: "engine.probs_us", unit: "us"},
	{name: "engine.f64_us_per_row", unit: "us"},
	{name: "engine.f32_us_per_row", unit: "us"},
	{name: "engine.i8_us_per_row", unit: "us"},
	{name: "engine.mflop_per_row", unit: "MFLOP"},
	{name: "engine.gflops", unit: "GFLOP/s", higher: true},
	{name: "nn.conv_us_per_row", unit: "us"},
	{name: "nn.dense_us_per_row", unit: "us"},
	{name: "nn.pool_us_per_row", unit: "us"},
	{name: "nn.act_us_per_row", unit: "us"},
	{name: "nn.other_us_per_row", unit: "us"},
	{name: "serve.station_us", unit: "us"},
	{name: "serve.do_us", unit: "us"},
	{name: "serve.hedges", unit: "count"},
	{name: "serve.retries", unit: "count"},
	{name: "serve.overloads", unit: "count"},
	{name: "serve.deadlines", unit: "count"},
	{name: "fleet.dispatch_us", unit: "us"},
	{name: "netserve.do_us", unit: "us"},
	{name: "netserve.http_us", unit: "us"},
	{name: "netserve.resp_bytes", unit: "B"},
	{name: "netserve.retries", unit: "count"},
	{name: "netserve.shard_share_max", unit: "ratio"},
	{name: "loadgen.client_us", unit: "us"},
	{name: "loadgen.req_bytes", unit: "B"},
	{name: "loadgen.generate_ms", unit: "ms"},
	{name: "monitor.time_share", unit: "ratio"},
	{name: "monitor.tick_p50_ms", unit: "ms"},
	{name: "monitor.tick_p95_ms", unit: "ms"},
	{name: "monitor.ticks", unit: "count", higher: true},
	{name: "monitor.tick_idle_ms", unit: "ms"},
	{name: "monitor.readout_rows_per_tick", unit: "rows"},
	{name: "monitor.tick_overhead_us", unit: "us"},
	{name: "monitor.req_p50_during_tick_ms", unit: "ms"},
	{name: "monitor.req_p50_clear_ms", unit: "ms"},
	{name: "monitor.detect_ticks", unit: "count"},
	{name: "hwcost.serving_fj_per_row", unit: "fJ"},
	{name: "hwcost.serving_cycles_per_row", unit: "cycles"},
	{name: "hwcost.monitor_fj_per_tick", unit: "fJ"},
	{name: "hwcost.monitor_energy_share", unit: "ratio"},
	{name: "hwcost.misbooked_rows", unit: "rows"},
	{name: "trace.serial_total_us", unit: "us"},
	{name: "trace.wait_us", unit: "us"},
	{name: "trace.lat_p95_ms", unit: "ms"},
	{name: "trace.lat_p99_ms", unit: "ms"},
	{name: "trace.gc_cycles", unit: "count"},
	{name: "trace.gc_pause_ms", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
}

// params sizes one run. The workloads, the tier and the statistics are the
// same at every size; only how long and how often things are measured moves.
type params struct {
	timed     time.Duration // the end-to-end run's one timed segment
	window    time.Duration // it is cut into windows this long,
	quiet     float64       // and this share of them, the quietest, is measured (see segment.quiet)
	pairs     int           // (untraced, traced) segment pairs of the traced run
	segment   time.Duration // length of one of those
	warmup    time.Duration
	setups    int           // stack builds timed for setup_s, at least
	setupFill time.Duration // keep building (up to 100 times) until this much set-up was timed
	ladderDiv int           // the ladder replays workload.ladder/ladderDiv requests
	idleTicks int
	gate      int           // bit-identity probes per correctness gate
	budget    time.Duration // per kernel-table measurement
}

func fullParams(seconds float64) params {
	timed := time.Duration(seconds * float64(time.Second))
	return params{timed: timed, window: 500 * time.Millisecond, quiet: 0.1, pairs: 3, segment: timed / 10,
		warmup: time.Second, setups: 5, setupFill: time.Second, ladderDiv: 1, idleTicks: 50, gate: 16, budget: 200 * time.Millisecond}
}

func quickParams() params {
	return params{timed: 200 * time.Millisecond, window: 100 * time.Millisecond, quiet: 0.5, pairs: 1, segment: 200 * time.Millisecond,
		warmup: 50 * time.Millisecond, setups: 1, ladderDiv: 10, idleTicks: 2, gate: 4, budget: 10 * time.Millisecond}
}

// metric and result are the output shape the contract fixes.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// render turns measured values into the declared metrics; a declared metric
// nobody measured, or a value that is not a finite number, is an error.
func render(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s: no finite measurement (%v)", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// warm runs the gate, lets caches fill and lazy set-up finish, and leaves the
// heap collected, so the first timed segment starts like every other.
func (s *stack) warm(p params) error {
	if err := s.gate(p.gate); err != nil {
		return err
	}
	s.runSegment(p.warmup, false)
	runtime.GC()
	return nil
}

// runEndToEnd is the --trace 0 run: set up several times (median → setup_s),
// gate, warm up, the timed segment, gate again. Timings and rates are those of
// the segment's quietest windows; the allocation counts are the whole
// segment's, since the host's other tenants do not move them.
func runEndToEnd(w workload, seed int64, p params) (result, error) {
	var s *stack
	var setups []float64
	for spent := 0.0; len(setups) < p.setups || (spent < p.setupFill.Seconds() && len(setups) < 100); {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = build(w, seed); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	defer s.close()
	if err := s.warm(p); err != nil {
		return result{}, err
	}
	run := s.runSegment(p.timed, false)
	if err := s.gate(p.gate); err != nil {
		return result{}, err
	}
	latMs, wall := run.quiet(p.window, p.quiet)
	if len(latMs) == 0 {
		return result{}, fmt.Errorf("no request was answered ok in %v", p.timed)
	}
	rowsPerS := float64(len(latMs)*w.rows) / wall.Seconds()
	progress("%s: %.0f rows/s, p50 %.3f ms over %.1f s; %.0f rows/s, p50 %.3f ms in its quietest %.1f s",
		w.name, run.rowsPerS(), median(run.latMs), p.timed.Seconds(), rowsPerS, median(latMs), wall.Seconds())
	sent := float64(run.ledger.sent)
	metrics, err := render(endToEnd, map[string]float64{
		"rows_per_s":     rowsPerS,
		"lat_p50_ms":     median(latMs),
		"allocs_per_req": float64(run.mallocs) / sent,
		"kb_per_req":     float64(run.bytes) / 1024 / sent,
		"setup_s":        median(setups),
	})
	return result{Correct: true, Attempted: run.ledger.sent,
		Failed: run.ledger.sent - run.ledger.ok, Metrics: metrics}, err
}

// runLayers is the --trace 1 run: untraced and traced segments in turn (their
// difference is the tracing overhead), the serial ladder, the kernel table,
// idle ticks, the gate and (on the monitored workload) the fault-detection
// check.
func runLayers(w workload, seed int64, p params, traceOut string) (result, error) {
	s, err := build(w, seed)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	if err := s.warm(p); err != nil {
		return result{}, err
	}
	m := map[string]float64{"loadgen.generate_ms": s.generateMs, "monitor.detect_ticks": 0}

	servingBefore := classCost(s.front, reram.ClassServing)
	monitorBefore := classCost(s.front, reram.ClassMonitor)
	plain, traced := make([]segment, p.pairs), make([]segment, p.pairs)
	var total segment // pooled over the untraced segments, except the ledger: every request sent
	var spans []span
	var during, clear []float64 // per traced segment: p50 of requests that did / did not overlap a tick
	for i := range plain {
		plain[i] = s.runSegment(p.segment, false)
		traced[i] = s.runSegment(p.segment, true)
		progress("%s segment pair %d/%d: %.0f rows/s untraced, %.0f traced", w.name, i+1, len(plain),
			plain[i].rowsPerS(), traced[i].rowsPerS())
		total.ledger.merge(plain[i].ledger)
		total.ledger.merge(traced[i].ledger)
		total.latMs = append(total.latMs, plain[i].latMs...)
		total.tickMs = append(total.tickMs, plain[i].tickMs...)
		total.gcs += plain[i].gcs
		total.gcPause += plain[i].gcPause
		d, c := splitByTick(traced[i].spans)
		during, clear = append(during, d), append(clear, c)
		for _, sp := range traced[i].spans {
			sp.Segment = i
			spans = append(spans, sp)
		}
	}
	serving := classCost(s.front, reram.ClassServing).Minus(servingBefore)
	monitoring := classCost(s.front, reram.ClassMonitor).Minus(monitorBefore)
	m["hwcost.serving_fj_per_row"] = float64(serving.EnergyFJ) / float64(total.ledger.rows)
	m["hwcost.serving_cycles_per_row"] = float64(serving.ComputeCycles) / float64(total.ledger.rows)
	m["hwcost.monitor_energy_share"] = float64(monitoring.EnergyFJ) / float64(monitoring.EnergyFJ+serving.EnergyFJ)
	m["monitor.time_share"] = overSegments(plain, segment.tickShare)
	m["monitor.tick_p50_ms"] = overSegments(plain, func(g segment) float64 { return median(g.tickMs) })
	m["monitor.tick_p95_ms"] = stats.Quantile(total.tickMs, 0.95)
	m["monitor.ticks"] = float64(len(total.tickMs))
	m["monitor.req_p50_during_tick_ms"], m["monitor.req_p50_clear_ms"] = median(during), median(clear)
	m["trace.lat_p95_ms"] = stats.Quantile(total.latMs, 0.95)
	m["trace.lat_p99_ms"] = stats.Quantile(total.latMs, 0.99)
	m["trace.gc_cycles"] = float64(total.gcs)
	m["trace.gc_pause_ms"] = float64(total.gcPause) / 1e6
	m["trace.overhead_pct"] = 100 * (1 - overSegments(traced, segment.rowsPerS)/overSegments(plain, segment.rowsPerS))
	var served, busiest uint64
	for _, sh := range s.front.Status() {
		m["serve.hedges"] += float64(sh.Stats.Hedges)
		m["serve.retries"] += float64(sh.Stats.Retries)
		m["serve.overloads"] += float64(sh.Stats.Overloads)
		m["serve.deadlines"] += float64(sh.Stats.Deadlines)
		served += sh.Stats.Served
		busiest = max(busiest, sh.Stats.Served)
	}
	m["netserve.retries"] = float64(s.front.Stats().Retries)
	m["netserve.shard_share_max"] = float64(busiest) / float64(served)
	if traceOut != "" {
		if err := writeSpans(traceOut, spans); err != nil {
			return result{}, err
		}
	}

	progress("%s ladder", w.name)
	lad, err := runLadder(s.plant, w.ladder/p.ladderDiv)
	if err != nil {
		return result{}, err
	}
	for name, us := range lad.selfUs {
		m[name] = us
	}
	m["trace.serial_total_us"] = lad.totalUs
	m["trace.wait_us"] = overSegments(plain, func(g segment) float64 { return stats.Quantile(g.latMs, 0.5) })*1e3 - lad.totalUs
	m["loadgen.req_bytes"] = float64(lad.reqBytes)
	m["netserve.resp_bytes"] = float64(lad.respBytes)

	progress("%s kernel table", w.name)
	if err := kernelTable(s.plant, p.budget, m); err != nil {
		return result{}, err
	}
	if m["fleet.dispatch_us"], err = dispatchUs(s.plant, p.budget); err != nil {
		return result{}, err
	}
	if err := idleTicks(s.plant, p.idleTicks, p.budget, m); err != nil {
		return result{}, err
	}

	if err := s.gate(p.gate); err != nil {
		return result{}, err
	}
	if w.tick > 0 {
		ticks, err := s.detect()
		if err != nil {
			return result{}, err
		}
		m["monitor.detect_ticks"] = float64(ticks)
	}
	m["hwcost.misbooked_rows"] = float64(s.misbooked)
	metrics, err := render(perLayer, m)
	return result{Correct: true, Attempted: total.ledger.sent,
		Failed: total.ledger.sent - total.ledger.ok, Metrics: metrics}, err
}

// splitByTick reads the traced segment's spans: the median latency of
// requests that overlapped a tick and of those that did not (0 when there are
// none of a kind).
func splitByTick(spans []span) (duringMs, clearMs float64) {
	var ticks []span
	for _, sp := range spans {
		if sp.Name == "tick" {
			ticks = append(ticks, sp)
		}
	}
	var during, clear []float64
	for _, sp := range spans {
		if sp.Name != "request" {
			continue
		}
		ms := float64(sp.End-sp.Start) / 1e6
		overlapped := false
		for _, t := range ticks {
			if sp.Start < t.End && t.Start < sp.End {
				overlapped = true
				break
			}
		}
		if overlapped {
			during = append(during, ms)
		} else {
			clear = append(clear, ms)
		}
	}
	return median(during), median(clear)
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// document is what a run over every workload prints, and what -compare reads.
type document struct {
	Env       env             `json:"env"`
	Workloads []namedWorkload `json:"workloads"`
}

type namedWorkload struct {
	Name string `json:"name"`
	result
}

type env struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit,omitempty"`
}

func currentEnv(seed int64, seconds float64) env {
	e := env{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				e.Commit = kv.Value
			}
		}
	}
	return e
}

func main() {
	name := flag.String("workload", "", "run one workload and print its result line (default: every workload, both runs, one document)")
	seed := flag.Int64("seed", 1, "seeds loadgen.Generate and the test-pattern tensors")
	seconds := flag.Float64("seconds", 30, "timed seconds of the end-to-end run; the traced run's six segments are a tenth as long each")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics from the traced run")
	traceOut := flag.String("trace-out", "", "with -workload and -trace 1: write the traced segments' spans to this file as JSON")
	quick := flag.Bool("quick", false, "smoke-test sizing: 200 ms segments, a tenth of the ladder")
	compare := flag.Bool("compare", false, "compare two documents: bench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		pass, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !pass {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	p := fullParams(*seconds)
	if *quick {
		p = quickParams()
	}
	e := currentEnv(*seed, *seconds)
	progress("%s, GOMAXPROCS %d of %d CPUs, seed %d, commit %q", e.Go, e.GOMAXPROCS, e.NumCPU, e.Seed, e.Commit)

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		var res result
		var err error
		if *trace == 1 {
			res, err = runLayers(w, *seed, p, *traceOut)
		} else {
			res, err = runEndToEnd(w, *seed, p)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		emit(res)
		return
	}

	doc := document{Env: e}
	for _, w := range workloads {
		res, err := runEndToEnd(w, *seed, p)
		if err == nil {
			var layers result
			if layers, err = runLayers(w, *seed, p, *traceOut); err == nil {
				for k, v := range layers.Metrics {
					res.Metrics[k] = v
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		doc.Workloads = append(doc.Workloads, namedWorkload{Name: w.name, result: res})
	}
	emit(doc)
}

// emit prints v as one line of JSON: the last line of standard output.
func emit(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
