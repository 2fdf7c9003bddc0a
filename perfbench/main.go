// Command perfbench measures the real CSAR engine — client, rpc, iod
// server, durable storage and the persistent manager — assembled in one
// process on loopback TCP, under a closed loop of two workers.
//
//	perfbench --workload checkpoint|small_update|degraded --seed N --seconds S --trace 0|1
//
// Every payload derives from (seed, file, offset, version) and every read
// is checked against the model of acknowledged writes; the run ends with a
// restart, a resync, a blank-store rebuild, Verify, one Scrub pass and a
// full read-back. The last line of standard output is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1. Any
// verification failure makes the exit status 1. See BENCHMARK.json in the
// repository root for the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// config sizes one run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // directory the deployments live in
	spans    string // span file written by traced runs ("" = none)
	setups   int    // times set-up is performed and timed
	fileSize int64  // small_update/degraded file size
	pieces   int    // checkpoint pieces (4 stripes each) per file
	cycleOps int    // small_update/degraded ops per worker per cycle
	flip     bool   // corrupt one stored byte (oracle self-test)
}

// defaults are the benchmark's sizes; the self-test shrinks them.
func defaults() config {
	return config{setups: 5, fileSize: 8 << 20, pieces: 8, cycleOps: 200}
}

// result is one run's outcome.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable lines printed before the JSON
}

func main() {
	cfg := defaults()
	flag.StringVar(&cfg.workload, "workload", "", "checkpoint, small_update or degraded")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured window length")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.root = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if cfg.trace {
		cfg.spans = filepath.Join(".bench_build", "spans-"+cfg.workload+".jsonl")
	}

	// A hung run must end, without a result, well inside 180 s past the window.
	time.AfterFunc(time.Duration(cfg.seconds)*time.Second+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run did not finish")
		os.RemoveAll(cfg.root) //nolint:errcheck // exiting anyway
		os.Exit(2)
	})
	res, err := run(cfg)
	os.RemoveAll(cfg.root) //nolint:errcheck // deployments clean up after themselves; this catches leftovers
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	os.Exit(exitCode(res))
}

func exitCode(r *result) int {
	if r.Correct {
		return 0
	}
	return 1
}

// window is what the measured window produced.
type window struct {
	logs        [workers]workerLog
	cycles      []cycleStat
	secs        float64
	secsByTrace [2]float64 // untraced, traced
	counts      countSnap
	rt          rtSnap // untraced segments only
	end         int64  // recorder time the window ended
}

// cycleStat is one closed-loop cycle: both workers' ops between two
// barriers.
type cycleStat struct {
	secs   float64
	ops    int
	bytes  int
	cpuNS  int64
	traced bool
}

// cycleMedian is the median over untraced cycles of f.
func (w *window) cycleMedian(f func(c cycleStat) float64) float64 {
	var xs []float64
	for _, c := range w.cycles {
		if !c.traced {
			xs = append(xs, f(c))
		}
	}
	return median(xs)
}

func run(cfg config) (*result, error) {
	if cfg.seconds <= 0 || cfg.setups < 1 {
		return nil, fmt.Errorf("--seconds and set-up count must be positive")
	}
	wl, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()

	// Set-up: deployment start plus pre-fill, cfg.setups times; the median
	// is reported and the last deployment is kept.
	var setupSecs []float64
	var d *deployment
	var adm *benchClient
	for i := range cfg.setups {
		if d != nil {
			d.close()
		}
		start := time.Now()
		d, err = deploy(rec, filepath.Join(cfg.root, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		adm = d.newClient(-1)
		if err := wl.prefill(d, adm); err != nil {
			d.close()
			return nil, fmt.Errorf("pre-fill: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
	}
	defer d.close()

	var cls []*benchClient
	for w := range workers {
		cls = append(cls, d.newClient(w))
	}
	if err := wl.prepare(d, cls); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	ticks0, steal0 := cpuTicks()
	win := measure(cfg, rec, wl, cls)
	ticks1, steal1 := cpuTicks()
	live := wl.live()
	var liveBytes int64
	for _, lf := range live {
		liveBytes += int64(len(lf.want))
	}
	storageRatio := float64(d.allocated()) / float64(liveBytes)

	rec.on.Store(cfg.trace)
	cr := closing(d, adm, wl)
	rec.on.Store(false)

	res := &result{Metrics: map[string]metric{}}
	var ops, userBytes, readBytes, writeBytes int
	var byStart []sample
	for _, l := range win.logs {
		res.Attempted += l.attempted
		res.Failed += l.failed
		for _, s := range l.samples {
			ops++
			userBytes += s.bytes
			if s.read {
				readBytes += s.bytes
			} else {
				writeBytes += s.bytes
			}
		}
		byStart = append(byStart, l.samples...)
	}
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].at < byStart[j].at })
	var reads, writes []float64 // milliseconds, in start order
	for _, s := range byStart {
		if s.read {
			reads = append(reads, float64(s.ns)/1e6)
		} else {
			writes = append(writes, float64(s.ns)/1e6)
		}
	}
	res.Attempted += cr.attempted
	res.Failed += cr.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if ops == 0 || userBytes == 0 || len(reads) == 0 || len(writes) == 0 {
		res.Correct = false
		res.notes = append(res.notes, "no reads or no writes completed in the window")
		return res, nil
	}
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a check failed before the figure could be taken; the run is already incorrect
		}
		res.Metrics[name] = metric{v, unit}
	}
	note := func(format string, a ...any) { res.notes = append(res.notes, fmt.Sprintf(format, a...)) }

	note("workload %s seed %d: %d ops in %.3f s, %d attempted, %d failed (fail_frac %.6f), set-up median of %d",
		cfg.workload, cfg.seed, ops, win.secs, res.Attempted, res.Failed,
		float64(res.Failed)/float64(res.Attempted), len(setupSecs))
	wTail, wPct := blockTail(writes)
	rTail, rPct := blockTail(reads)
	note("write latency: %d samples, tail = median of %d blocks' p%.2f; read latency: %d samples, tail = median of %d blocks' p%.2f",
		len(writes), max(len(writes)/tailBlock, 1), wPct, len(reads), max(len(reads)/tailBlock, 1), rPct)
	if ticks1 > ticks0 {
		// Host noise is the usual reason one run reads slower than the rest.
		note("hypervisor steal: %.1f%% of CPU time during the window", 100*float64(steal1-steal0)/float64(ticks1-ticks0))
	}
	recoverySecs := float64(cr.resyncNS+cr.rebuildNS) / 1e9

	if !cfg.trace {
		// Throughput and CPU cost are medians over cycles, each of which
		// repeats the same work, so a burst of host noise moves one
		// cycle and not the figure.
		set("ops_per_s", "1/s", win.cycleMedian(func(c cycleStat) float64 { return float64(c.ops) / c.secs }))
		set("MB_per_s", "MB/s", win.cycleMedian(func(c cycleStat) float64 { return float64(c.bytes) / 1e6 / c.secs }))
		set("write_p50_ms", "ms", median(writes))
		set("write_tail_ms", "ms", wTail)
		set("read_p50_ms", "ms", median(reads))
		set("read_tail_ms", "ms", rTail)
		set("setup_s", "s", median(setupSecs))
		set("storage_ratio", "ratio", storageRatio)
		set("cpu_ms_per_MB", "ms/MB", win.cycleMedian(func(c cycleStat) float64 { return float64(c.cpuNS) / 1e6 / (float64(c.bytes) / 1e6) }))
		set("recovery_MB_per_s", "MB/s", float64(liveBytes)/1e6/recoverySecs)
	} else {
		spans := rec.take()
		ls := analyze(spans, win.end, win.secsByTrace[1])
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, spans); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
			note("spans: %d recorded (%d in the window), written to %s", ls.spansTotal, ls.spansInWindow, cfg.spans)
		}
		var tracedOps, untracedOps int
		for _, l := range win.logs {
			for _, s := range l.samples {
				if s.traced {
					tracedOps++
				} else {
					untracedOps++
				}
			}
		}
		c := win.counts
		fops := float64(ops)
		fub := float64(userBytes)
		set("client.self_us_per_op", "us", ls.clientSelfUS)
		set("client.rpcs_per_op", "count", float64(c.srvCalls+c.mgrCalls)/fops)
		set("rpc.call_us_p50", "us", quantile(ls.callUS, 0.5))
		set("rpc.call_us_p99", "us", quantile(ls.callUS, 0.99))
		set("rpc.transit_us_p50", "us", quantile(ls.transitUS, 0.5))
		set("rpc.wire_bytes_per_user_byte", "ratio", float64(c.wireBytes)/fub)
		set("server.self_us_per_call", "us", ls.serverSelfUS)
		set("server.write_data_us_p50", "us", quantile(ls.writeDataUS, 0.5))
		set("server.read_parity_us_p50", "us", quantile(ls.readParityUS, 0.5))
		set("server.parity_lock_wait_us_p99", "us", quantile(ls.lockWaitUS, 0.99))
		set("server.write_overflow_frac", "ratio", ls.overflowFrac)
		set("storage.write_bytes_per_user_byte", "ratio", float64(c.storeWrite)/float64(writeBytes))
		set("storage.read_bytes_per_user_byte", "ratio", float64(c.storeRead)/float64(readBytes))
		set("storage.syncs_per_op", "count", float64(c.storeSyncs)/fops)
		set("storage.sync_us_p50", "us", quantile(ls.syncUS, 0.5))
		set("storage.sync_us_p99", "us", quantile(ls.syncUS, 0.99))
		set("storage.busy_frac", "ratio", ls.busyFrac)
		set("meta.calls_per_op", "count", float64(c.mgrCalls)/fops)
		set("meta.handle_us_p50", "us", quantile(ls.metaUS, 0.5))
		set("recovery.resync_s", "s", float64(cr.resyncNS)/1e9)
		set("recovery.rebuild_MB_per_s", "MB/s", float64(liveBytes)/1e6/(float64(cr.rebuildNS)/1e9))
		set("recovery.rpcs_per_MB", "count/MB", float64(cr.rebuildCalls)/(float64(liveBytes)/1e6))
		set("scrub.MB_per_s", "MB/s", float64(cr.scrubBytes)/1e6/(float64(cr.scrubNS)/1e9))
		// Runtime cost from the untraced segments, so the tracer's own
		// allocations are not billed to the program.
		uBytes, uOps := untracedUserBytes(win), float64(untracedOps)
		set("runtime.alloc_bytes_per_user_byte", "ratio", float64(win.rt.alloc)/uBytes)
		set("runtime.allocs_per_op", "count", float64(win.rt.mallocs)/uOps)
		set("runtime.gc_cpu_frac", "ratio", win.rt.gcCPU/win.rt.allCPU)
		tracedRate := float64(tracedOps) / win.secsByTrace[1]
		untracedRate := uOps / win.secsByTrace[0]
		set("trace.overhead_frac", "ratio", 1-tracedRate/untracedRate)
		note("traced %d ops in %.3f s, untraced %d ops in %.3f s; %d store spans linked to handlers, %d not",
			tracedOps, win.secsByTrace[1], untracedOps, win.secsByTrace[0], ls.linkedStore, ls.unlinkedStore)
	}
	return res, nil
}

func untracedUserBytes(win window) float64 {
	var n int
	for _, l := range win.logs {
		for _, s := range l.samples {
			if !s.traced {
				n += s.bytes
			}
		}
	}
	return float64(n)
}

// measure runs one untimed warm-up cycle, then closed-loop cycles until
// cfg.seconds have passed; both workers finish each cycle at a barrier.
// A traced run alternates untraced and traced segments of a sixth of the
// window each, switching at cycle boundaries.
func measure(cfg config, rec *recorder, wl workload, cls []*benchClient) window {
	var win window
	b := newBarrier(workers)
	var warm [workers]workerLog
	runCycles := func(logs *[workers]workerLog, first int, decide func() bool) {
		var wg sync.WaitGroup
		for w := range workers {
			logs[w].rec, logs[w].worker = rec, w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := first; ; c++ {
					wl.cycle(w, c, cls[w], b, &logs[w], rec.on.Load())
					if b.wait(decide) {
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	runCycles(&warm, 0, func() bool { return true })
	if cfg.flip {
		rec.flip.Store(true)
	}

	dur := time.Duration(cfg.seconds * float64(time.Second))
	seg := dur / 6
	c0 := rec.count.snap()
	start := time.Now()
	mark := start
	rtMark := readRuntime()
	cpuMark := rtMark.rusageNS
	var seen [workers]int
	// decide runs at every cycle's end, while both workers wait at the
	// barrier, so it may read their logs.
	decide := func() bool {
		now := time.Now()
		on := rec.on.Load()
		cs := cycleStat{secs: now.Sub(mark).Seconds(), traced: on, cpuNS: -cpuMark}
		for w := range workers {
			for _, s := range win.logs[w].samples[seen[w]:] {
				cs.ops++
				cs.bytes += s.bytes
			}
			seen[w] = len(win.logs[w].samples)
		}
		cpuMark = rusageNS()
		cs.cpuNS += cpuMark
		win.cycles = append(win.cycles, cs)
		win.secsByTrace[b2i(on)] += cs.secs
		mark = now
		next := cfg.trace && (now.Sub(start)/seg)%2 == 1
		done := now.Sub(start) >= dur
		if on != next || done {
			rt := readRuntime()
			if !on {
				win.rt = win.rt.add(rt.sub(rtMark))
			}
			rtMark = rt
		}
		if done {
			next = false
		}
		rec.on.Store(next)
		return done
	}
	runCycles(&win.logs, 1, decide)
	win.secs = time.Since(start).Seconds()
	win.end = rec.now()
	win.counts = rec.count.snap().sub(c0)
	for w := range workers {
		win.logs[w].attempted += warm[w].attempted
		win.logs[w].failed += warm[w].failed
	}
	return win
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
