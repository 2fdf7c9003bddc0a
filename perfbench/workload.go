package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"csar/internal/client"
	"csar/internal/recovery"
	"csar/internal/scrub"
	"csar/internal/wire"
)

const (
	workers     = 2 // closed-loop workers, one client mount each
	stripeUnit  = 64 << 10
	poolSize    = 8 << 20 // random bytes every payload is a window of
	readChunk   = 1 << 20 // read-back chunk of the closing check
	rebuildReps = 15      // blank-store rebuild passes of the closing check
)

// sample is one timed operation of the measured window.
type sample struct {
	read   bool
	at     int64 // start, recorder time
	ns     int64
	bytes  int
	traced bool
}

// workerLog is what one worker observed.
type workerLog struct {
	rec       *recorder
	worker    int
	samples   []sample
	attempted int
	failed    int
}

// pool is the seeded random bytes every payload is cut from: payload
// (seed, file, offset, version) is the window starting at a hash of those
// four values, so payloads are reproducible and two versions of one range
// differ.
type pool []byte

func newPool(seed int64) pool {
	p := make(pool, poolSize)
	x := uint64(seed)
	for i := 0; i+8 <= len(p); i += 8 {
		v := splitmix(&x)
		for j := range 8 {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	return p
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p pool) payload(seed int64, file, off int64, version uint64, n int) []byte {
	x := uint64(seed) ^ uint64(file)*0x9e3779b97f4a7c15
	splitmix(&x)
	x ^= uint64(off)
	splitmix(&x)
	x ^= version
	start := splitmix(&x) % uint64(len(p)-n+1)
	return p[start : start+uint64(n)]
}

// barrier is a reusable two-party barrier; the last arrival runs decide
// and every party gets its answer.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	waiting  int
	gen      uint64
	decision bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait(decide func() bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.decision = decide != nil && decide()
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return b.decision
	}
	for g == b.gen {
		b.cond.Wait()
	}
	return b.decision
}

// liveFile is a file that exists after the window, with the bytes the
// model says it holds.
type liveFile struct {
	name string
	want []byte
}

// workload is one traffic mix. prefill is part of the timed set-up;
// prepare opens the worker's handles (and, for degraded, fails iod 2);
// cycle runs one fixed slice of the op sequence; live lists what the
// closing check must find.
type workload interface {
	prefill(d *deployment, adm *benchClient) error
	prepare(d *deployment, cls []*benchClient) error
	cycle(w, c int, cl *benchClient, b *barrier, log *workerLog, traced bool)
	live() []liveFile
	degraded() bool
}

func newWorkload(cfg config) (workload, error) {
	p := newPool(cfg.seed)
	switch cfg.workload {
	case "checkpoint":
		return &checkpointWL{cfg: cfg, pool: p}, nil
	case "small_update":
		// 128 KiB slots: the workers share every stripe, so their RMWs
		// contend for the same parity locks.
		return newUpdateWL(cfg, p, []wire.Scheme{wire.Raid5, wire.Hybrid}, 128<<10, 5, false), nil
	case "degraded":
		// 768 KiB slots hold whole stripes of both geometries, so the
		// workers never share a stripe: a degraded read takes no parity
		// lock, and reconstructing it while another client's RMW on the
		// same stripe is between its data and parity writes returns wrong
		// bytes.
		return newUpdateWL(cfg, p, []wire.Scheme{wire.Raid5, wire.ReedSolomon}, 768<<10, 2, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (checkpoint, small_update, degraded)", cfg.workload)
}

// parityOf is the parity-unit count a scheme is created with: RS(3,2) on
// five iods, the manager's default for the rest.
func parityOf(s wire.Scheme) int {
	if s == wire.ReedSolomon {
		return 2
	}
	return 0
}

func stripeOf(s wire.Scheme) int64 {
	if s == wire.ReedSolomon {
		return 3 * stripeUnit
	}
	return 4 * stripeUnit
}

func (l *workerLog) time(read bool, n int, traced bool, fn func() bool) {
	l.attempted++
	start := time.Now()
	s := l.rec.now()
	ok := fn()
	l.samples = append(l.samples, sample{read: read, at: s, ns: int64(time.Since(start)), bytes: n, traced: traced})
	if traced {
		name := "write"
		if read {
			name = "read"
		}
		l.rec.add(span{Kind: spanOp, Name: name, Start: s, End: l.rec.now(), Node: -1, Worker: l.worker, Bytes: int64(n)})
	}
	if !ok {
		l.failed++
	}
}

func (l *workerLog) fail(format string, a ...any) {
	l.attempted++
	l.failed++
	complain(format, a...)
}

// complain reports a failure on stderr, capped so a systematic failure
// does not flood the log.
var complaints struct {
	sync.Mutex
	n int
}

func complain(format string, a ...any) {
	complaints.Lock()
	defer complaints.Unlock()
	complaints.n++
	if complaints.n <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
	}
}

// checkpointWL: each round a new file, scheme cycling Raid5 -> Hybrid ->
// RS(3,2); both workers write their interleaved share as whole-stripe
// pieces, Sync, read the other worker's share back, and the previous
// checkpoint is removed. Cycle c is rounds 3c+1..3c+3; set-up writes
// round 0, the checkpoint the run starts from.
type checkpointWL struct {
	cfg  config
	pool pool

	last int // last round completed; written by worker 0, read after the window
}

var ckptSchemes = [3]wire.Scheme{wire.Raid5, wire.Hybrid, wire.ReedSolomon}

func (wl *checkpointWL) prepare(*deployment, []*benchClient) error { return nil }
func (wl *checkpointWL) degraded() bool                            { return false }
func ckptName(r int) string                                        { return fmt.Sprintf("ckpt-%06d", r) }
func (wl *checkpointWL) piece(s wire.Scheme) int64                 { return 4 * stripeOf(s) }

func ckptScheme(r int) wire.Scheme { return ckptSchemes[(r+2)%3] }

func (wl *checkpointWL) content(r int, p int64) []byte {
	piece := wl.piece(ckptScheme(r))
	return wl.pool.payload(wl.cfg.seed, int64(r), p*piece, uint64(r), int(piece))
}

func (wl *checkpointWL) prefill(_ *deployment, adm *benchClient) error {
	s := ckptScheme(0)
	f, err := adm.CreateParity(ckptName(0), numIODs, stripeUnit, s, parityOf(s))
	if err != nil {
		return err
	}
	for p := range int64(wl.cfg.pieces) {
		if _, err := f.WriteAt(wl.content(0, p), p*wl.piece(s)); err != nil {
			return err
		}
	}
	wl.last = 0
	return f.Sync()
}

func (wl *checkpointWL) cycle(w, c int, cl *benchClient, b *barrier, log *workerLog, traced bool) {
	for j := range 3 {
		r := 3*c + j + 1
		scheme := ckptScheme(r)
		var f *client.File
		var err error
		if w == 0 {
			f, err = cl.CreateParity(ckptName(r), numIODs, stripeUnit, scheme, parityOf(scheme))
		}
		b.wait(nil)
		if w != 0 {
			f, err = cl.Open(ckptName(r))
		}
		piece := wl.piece(scheme)
		pieces := wl.cfg.pieces
		if err != nil {
			log.fail("checkpoint round %d: open: %v", r, err)
		}
		for p := w; p < pieces && f != nil; p += workers {
			data := wl.content(r, int64(p))
			log.time(false, len(data), traced, func() bool {
				if _, err := f.WriteAt(data, int64(p)*piece); err != nil {
					complain("checkpoint round %d piece %d: write: %v", r, p, err)
					return false
				}
				return true
			})
		}
		if f != nil {
			if err := f.Sync(); err != nil {
				log.fail("checkpoint round %d: sync: %v", r, err)
			}
		}
		b.wait(nil)
		buf := make([]byte, piece)
		for p := 1 - w; p < pieces && f != nil; p += workers {
			want := wl.content(r, int64(p))
			log.time(true, len(buf), traced, func() bool {
				if _, err := f.ReadAt(buf, int64(p)*piece); err != nil {
					complain("checkpoint round %d piece %d: read: %v", r, p, err)
					return false
				}
				if !bytes.Equal(buf, want) {
					complain("checkpoint round %d piece %d: read-back mismatch", r, p)
					return false
				}
				return true
			})
		}
		b.wait(nil)
		if w == 0 {
			if err := cl.Remove(ckptName(r - 1)); err != nil {
				log.fail("checkpoint round %d: removing previous: %v", r, err)
			}
			wl.last = r
		}
	}
}

func (wl *checkpointWL) live() []liveFile {
	r := wl.last
	var want []byte
	for p := range int64(wl.cfg.pieces) {
		want = append(want, wl.content(r, p)...)
	}
	return []liveFile{{ckptName(r), want}}
}

// updateOp is one small_update/degraded operation.
type updateOp struct {
	file int
	off  int64
	n    int
	read bool
}

// genOps draws worker w's fixed op sequence. Each op picks a file, one of
// the worker's own slots (slots alternate between the workers, so they
// never share a byte), an unaligned range of 4-64 KiB inside it, and read
// or write. The mix is exact rather than sampled, so seeds differ only in
// slot choice and order: sizes and in-slot positions are evenly spaced,
// the files get equal shares, and exactly one op in readOneIn is a read,
// each list shuffled on its own.
func genOps(seed int64, w, files int, size, slotSize int64, count, readOneIn int) []updateOp {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w)*7919 + 17))
	slots := size / slotSize
	sizes, places, fileOf, reads := rng.Perm(count), rng.Perm(count), rng.Perm(count), rng.Perm(count)
	ops := make([]updateOp, count)
	for i := range ops {
		n := 4<<10 + sizes[i]*(60<<10)/max(count-1, 1)
		slot := rng.Int63n(slots/workers)*workers + int64(w)
		ops[i] = updateOp{
			file: fileOf[i] % files,
			off:  slot*slotSize + (slotSize-int64(n))*int64(places[i])/int64(max(count-1, 1)),
			n:    n,
			read: reads[i]%readOneIn == 0,
		}
	}
	return ops
}

// updateWL serves small_update (Raid5 + Hybrid, 1 read in 5) and degraded
// (Raid5 + RS(3,2), 1 read in 2, iod 2 down for the window).
type updateWL struct {
	cfg     config
	pool    pool
	schemes []wire.Scheme
	dead    bool

	models  [][]byte
	ops     [workers][]updateOp
	handles [workers][]*client.File
}

func newUpdateWL(cfg config, p pool, schemes []wire.Scheme, slotSize int64, readOneIn int, dead bool) *updateWL {
	wl := &updateWL{cfg: cfg, pool: p, schemes: schemes, dead: dead}
	for w := range workers {
		wl.ops[w] = genOps(cfg.seed, w, len(schemes), cfg.fileSize, slotSize, cfg.cycleOps, readOneIn)
	}
	return wl
}

func (wl *updateWL) degraded() bool { return wl.dead }

func (wl *updateWL) name(i int) string { return fmt.Sprintf("file-%d-%s", i, wl.schemes[i]) }

// prefill writes every file once, full stripes at version 0, and syncs.
func (wl *updateWL) prefill(d *deployment, adm *benchClient) error {
	wl.models = make([][]byte, len(wl.schemes))
	for i, s := range wl.schemes {
		f, err := adm.CreateParity(wl.name(i), numIODs, stripeUnit, s, parityOf(s))
		if err != nil {
			return err
		}
		model := make([]byte, 0, wl.cfg.fileSize)
		for off := int64(0); off < wl.cfg.fileSize; off += stripeOf(s) {
			n := min(stripeOf(s), wl.cfg.fileSize-off)
			p := wl.pool.payload(wl.cfg.seed, int64(i), off, 0, int(n))
			if _, err := f.WriteAt(p, off); err != nil {
				return err
			}
			model = append(model, p...)
		}
		if err := f.Sync(); err != nil {
			return err
		}
		wl.models[i] = model
	}
	return nil
}

func (wl *updateWL) prepare(d *deployment, cls []*benchClient) error {
	for w, cl := range cls {
		wl.handles[w] = nil
		for i := range wl.schemes {
			f, err := cl.Open(wl.name(i))
			if err != nil {
				return err
			}
			wl.handles[w] = append(wl.handles[w], f)
		}
	}
	if wl.dead {
		d.killIOD(2)
		for _, cl := range cls {
			cl.MarkDown(2)
		}
	}
	return nil
}

func (wl *updateWL) cycle(w, c int, _ *benchClient, _ *barrier, log *workerLog, traced bool) {
	ops := wl.ops[w]
	buf := make([]byte, 64<<10)
	for i, o := range ops {
		f := wl.handles[w][o.file]
		model := wl.models[o.file][o.off : o.off+int64(o.n)]
		if o.read {
			p := buf[:o.n]
			log.time(true, o.n, traced, func() bool {
				if _, err := f.ReadAt(p, o.off); err != nil {
					complain("%s: read %d@%d: %v", wl.name(o.file), o.n, o.off, err)
					return false
				}
				if !bytes.Equal(p, model) {
					complain("%s: read %d@%d: mismatch with acknowledged writes", wl.name(o.file), o.n, o.off)
					return false
				}
				return true
			})
			continue
		}
		version := uint64(c*len(ops)+i+1)<<1 | uint64(w)
		p := wl.pool.payload(wl.cfg.seed, int64(o.file), o.off, version, o.n)
		log.time(false, o.n, traced, func() bool {
			if _, err := f.WriteAt(p, o.off); err != nil {
				complain("%s: write %d@%d: %v", wl.name(o.file), o.n, o.off, err)
				return false
			}
			copy(model, p)
			return true
		})
	}
}

func (wl *updateWL) live() []liveFile {
	out := make([]liveFile, len(wl.schemes))
	for i := range wl.schemes {
		out[i] = liveFile{wl.name(i), wl.models[i]}
	}
	return out
}

// closeResult is what the closing check measured and found.
type closeResult struct {
	attempted, failed int
	resyncNS          int64
	rebuildNS         int64
	rebuildCalls      int64
	scrubNS           int64
	scrubBytes        int64
}

// closing is every workload's end-of-run check, run after the window:
// iod 2 is resynced (for degraded, after it restarts as a fresh server on
// its store; elsewhere it never left, and the pass must find nothing to
// replay); iod 3 is replaced by a blank store and rebuilt from the
// redundancy; Verify must report nothing, one Scrub pass must find and
// repair nothing, and a full read-back must match the model of
// acknowledged writes.
func closing(d *deployment, adm *benchClient, wl workload) closeResult {
	var res closeResult
	rec := d.rec
	check := func(ok bool, format string, a ...any) {
		res.attempted++
		if !ok {
			res.failed++
			complain(format, a...)
		}
	}
	phase := func(name string, node int, f liveFile, fn func()) int64 {
		t0 := time.Now()
		s := rec.now()
		fn()
		if rec.on.Load() {
			rec.add(span{Kind: spanPhase, Name: name, Start: s, End: rec.now(), Node: node, Worker: -1, Bytes: int64(len(f.want))})
		}
		return int64(time.Since(t0))
	}

	live := wl.live()
	if wl.degraded() {
		if err := d.restartIOD(2, false); err != nil {
			check(false, "closing: %v", err)
			return res
		}
	}
	files := make([]*client.File, len(live))
	for i, lf := range live {
		f, err := adm.Open(lf.name)
		check(err == nil, "closing: open %s: %v", lf.name, err)
		if err != nil {
			return res
		}
		files[i] = f
		res.resyncNS += phase("resync", 2, lf, func() {
			rep, err := recovery.Resync(adm.Client, f, 2, recovery.ResyncOptions{})
			check(err == nil && (wl.degraded() || rep.Items() == 0),
				"closing: resync %s: %v (%d items replayed)", lf.name, err, rep.Items())
		})
	}
	d.mu.Lock()
	for _, cl := range d.clients {
		cl.MarkUp(2)
	}
	d.mu.Unlock()

	// The blank-store rebuild runs rebuildReps times and reports the
	// median pass, so one short pass is not a single sample of host noise.
	var passes []float64
	for range rebuildReps {
		d.killIOD(3)
		if err := d.restartIOD(3, true); err != nil {
			check(false, "closing: %v", err)
			return res
		}
		before := rec.count.srvCalls.Load()
		var ns int64
		for i, lf := range live {
			ns += phase("rebuild", 3, lf, func() {
				err := recovery.Rebuild(adm.Client, files[i], 3)
				check(err == nil, "closing: rebuild %s: %v", lf.name, err)
			})
		}
		passes = append(passes, float64(ns))
		res.rebuildCalls = rec.count.srvCalls.Load() - before
	}
	res.rebuildNS = int64(median(passes))

	for i, lf := range live {
		phase("verify", -1, lf, func() {
			problems, err := recovery.Verify(adm.Client, files[i])
			check(err == nil && len(problems) == 0, "closing: verify %s: %v %q", lf.name, err, problems)
		})
		res.scrubNS += phase("scrub", -1, lf, func() {
			rep, err := scrub.Run(adm.Client, files[i], scrub.Options{})
			if err != nil {
				check(false, "closing: scrub %s: %v", lf.name, err)
				return
			}
			t := rep.Totals()
			res.scrubBytes += rep.BytesScrubbed
			check(t.Mismatched == 0 && t.Repaired == 0, "closing: scrub %s: %d mismatched, %d repaired: %q",
				lf.name, t.Mismatched, t.Repaired, rep.Problems)
		})
		buf := make([]byte, readChunk)
		for off := 0; off < len(lf.want); off += readChunk {
			n := min(readChunk, len(lf.want)-off)
			_, err := files[i].ReadAt(buf[:n], int64(off))
			check(err == nil && bytes.Equal(buf[:n], lf.want[off:off+n]),
				"closing: read-back %s at %d: mismatch with acknowledged writes (err %v)", lf.name, off, err)
		}
	}
	return res
}
