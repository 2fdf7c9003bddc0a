package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

// tail is p99, or the highest percentile that leaves at least ten samples
// beyond it; it returns the value and the percentile used.
func tail(xs []float64) (float64, float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	k := min(int(math.Ceil(0.99*float64(n)))-1, n-11)
	k = max(k, 0)
	return xs[k], 100 * float64(k+1) / float64(n)
}

// tailBlock is the fewest samples a block of blockTail holds: enough for
// a p99 with ten samples beyond it.
const tailBlock = 1000

// blockTail splits time-ordered latencies into consecutive blocks of at
// least tailBlock samples and returns the median of the blocks' tails and
// the percentile used. A burst of host noise then moves one block's tail
// rather than the figure; with fewer than 2*tailBlock samples it is the
// tail of the whole run.
func blockTail(xs []float64) (float64, float64) {
	nb := max(len(xs)/tailBlock, 1)
	var tails []float64
	var pct float64
	for i := range nb {
		t, p := tail(sorted(append([]float64(nil), xs[i*len(xs)/nb:(i+1)*len(xs)/nb]...)))
		tails = append(tails, t)
		pct = p
	}
	return median(tails), pct
}

func sorted(xs []float64) []float64 {
	sort.Float64s(xs)
	return xs
}

func median(xs []float64) float64 { return quantile(sorted(append([]float64(nil), xs...)), 0.5) }

// rtSnap is process-wide cost at one instant.
type rtSnap struct {
	alloc, mallocs uint64
	gcCPU, allCPU  float64 // runtime/metrics CPU-seconds
	rusageNS       int64   // user + system CPU of the process
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(rtSamples)
	return rtSnap{
		alloc: ms.TotalAlloc, mallocs: ms.Mallocs,
		gcCPU: rtSamples[0].Value.Float64(), allCPU: rtSamples[1].Value.Float64(),
		rusageNS: rusageNS(),
	}
}

// cpuTicks reads the host's aggregate CPU ticks from /proc/stat: the total
// and the part stolen by the hypervisor. It returns zeros where the file is
// unavailable.
func cpuTicks() (total, steal int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// rusageNS is the process's user plus system CPU time.
func rusageNS() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{a.alloc - b.alloc, a.mallocs - b.mallocs, a.gcCPU - b.gcCPU, a.allCPU - b.allCPU, a.rusageNS - b.rusageNS}
}

func (a rtSnap) add(b rtSnap) rtSnap {
	return rtSnap{a.alloc + b.alloc, a.mallocs + b.mallocs, a.gcCPU + b.gcCPU, a.allCPU + b.allCPU, a.rusageNS + b.rusageNS}
}

// layerStats are the per-layer numbers derived from the spans.
type layerStats struct {
	clientSelfUS  float64
	callUS        []float64
	transitUS     []float64
	serverSelfUS  float64
	writeDataUS   []float64
	readParityUS  []float64
	lockWaitUS    []float64
	overflowFrac  float64
	syncUS        []float64
	busyFrac      float64
	metaUS        []float64
	linkedStore   int
	unlinkedStore int
	spansInWindow int
	spansTotal    int
}

// analyze links the spans into a tree (store -> handler by goroutine and
// containment, handler -> call by request ID, call -> op or phase by
// worker and containment) and derives the per-layer statistics. Spans that
// start before windowEnd belong to the measured window; later ones to the
// closing check.
func analyze(spans []span, windowEnd int64, tracedSecs float64) layerStats {
	var ls layerStats
	ls.spansTotal = len(spans)
	for i := range spans {
		spans[i].ID = int64(i + 1)
	}
	inWindow := func(s *span) bool { return s.Start < windowEnd }

	// store -> handler.
	type key struct {
		node int
		goid uint64
	}
	handlers := map[key][]*span{}
	byReq := map[uint64]*span{}
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case spanHandle:
			handlers[key{s.Node, s.goid}] = append(handlers[key{s.Node, s.goid}], s)
			if s.Req != 0 {
				byReq[s.Req] = s
			}
		}
	}
	for _, hs := range handlers {
		sort.Slice(hs, func(a, b int) bool { return hs[a].Start < hs[b].Start })
	}
	storeIn := map[int64]int64{} // handler ID -> storage and tracer ns inside it
	for i := range spans {
		s := &spans[i]
		if s.Kind != spanStore {
			continue
		}
		hs := handlers[key{s.Node, s.goid}]
		j := sort.Search(len(hs), func(j int) bool { return hs[j].Start > s.Start }) - 1
		if j >= 0 && s.End <= hs[j].End {
			s.Parent = hs[j].ID
			storeIn[hs[j].ID] += s.dur() + s.Tracer
			ls.linkedStore++
		} else {
			ls.unlinkedStore++
		}
	}

	// handler -> call, and the client-side call/transit distributions.
	var calls []*span
	for i := range spans {
		s := &spans[i]
		if s.Kind != spanCall {
			continue
		}
		calls = append(calls, s)
		h := byReq[s.Req]
		if s.Req != 0 && h != nil {
			h.Parent = s.ID
			if inWindow(s) {
				ls.transitUS = append(ls.transitUS, float64(s.dur()-h.dur()-h.Tracer)/1e3)
			}
		}
		if inWindow(s) && s.Worker >= 0 {
			ls.callUS = append(ls.callUS, float64(s.dur())/1e3)
		}
	}

	// call -> op (workers) or phase (admin): the enclosing interval of the
	// same client, whose ops and phases are sequential.
	owners := map[int][]*span{}
	for i := range spans {
		s := &spans[i]
		if s.Kind == spanOp || s.Kind == spanPhase {
			owners[s.Worker] = append(owners[s.Worker], s)
		}
	}
	for _, list := range owners {
		sort.Slice(list, func(a, b int) bool { return list[a].Start < list[b].Start })
	}
	covered := map[int64][][2]int64{} // op ID -> its calls' intervals
	for _, c := range calls {
		list := owners[c.Worker]
		j := sort.Search(len(list), func(j int) bool { return list[j].Start > c.Start }) - 1
		if j >= 0 && c.End <= list[j].End {
			c.Parent = list[j].ID
			if list[j].Kind == spanOp {
				covered[list[j].ID] = append(covered[list[j].ID], [2]int64{c.Start, c.End})
			}
		}
	}

	// Per-layer figures.
	var selfSum float64
	var nOps int
	for _, list := range owners {
		for _, o := range list {
			if o.Kind != spanOp {
				continue
			}
			nOps++
			selfSum += float64(o.dur()-unionLen(covered[o.ID])) / 1e3
		}
	}
	if nOps > 0 {
		ls.clientSelfUS = selfSum / float64(nOps)
	}

	var hSelf float64
	var nH int
	var handleNS, overflowNS int64
	storeIntervals := map[int][][2]int64{}
	for i := range spans {
		s := &spans[i]
		win := inWindow(s)
		if win {
			ls.spansInWindow++
		}
		switch s.Kind {
		case spanHandle:
			d := s.dur()
			self := d - storeIn[s.ID]
			if s.Name == "read_parity" {
				ls.readParityUS = append(ls.readParityUS, float64(d)/1e3)
				ls.lockWaitUS = append(ls.lockWaitUS, float64(self)/1e3)
			}
			if !win {
				continue
			}
			hSelf += float64(self) / 1e3
			nH++
			handleNS += d
			switch s.Name {
			case "write_data":
				ls.writeDataUS = append(ls.writeDataUS, float64(d)/1e3)
			case "write_overflow":
				overflowNS += d
			}
		case spanStore:
			if win {
				storeIntervals[s.Node] = append(storeIntervals[s.Node], [2]int64{s.Start, s.End})
				if s.Name == "sync" {
					ls.syncUS = append(ls.syncUS, float64(s.dur())/1e3)
				}
			}
		case spanMeta:
			ls.metaUS = append(ls.metaUS, float64(s.dur())/1e3)
		}
	}
	if nH > 0 {
		ls.serverSelfUS = hSelf / float64(nH)
	}
	if handleNS > 0 {
		ls.overflowFrac = float64(overflowNS) / float64(handleNS)
	}
	if tracedSecs > 0 {
		var busy float64
		for node := range numIODs {
			busy += float64(unionLen(storeIntervals[node])) / 1e9
		}
		ls.busyFrac = busy / numIODs / tracedSecs
	}
	for _, xs := range [][]float64{ls.callUS, ls.transitUS, ls.writeDataUS, ls.readParityUS, ls.lockWaitUS, ls.syncUS, ls.metaUS} {
		sort.Float64s(xs)
	}
	return ls
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	return total + cur[1] - cur[0]
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close() //nolint:errcheck // already failing
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	return f.Close()
}
