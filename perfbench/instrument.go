package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/rpc"
	"csar/internal/storage"
	"csar/internal/wire"
)

// This file holds the outside-in instrumentation: wrappers around the
// interfaces the benchmark hands to the program (client.Caller, the rpc
// handlers, storage.Backend/File and net.Conn), the counters they bump on
// every call, and the in-memory span recorder they feed when tracing is on.
// The wrappers run in traced and untraced runs alike; only span recording
// is switched.

// Span kinds, one per layer boundary the benchmark wraps.
const (
	spanOp     = "op"     // a workload operation (client entry)
	spanCall   = "call"   // client -> rpc: one Caller call
	spanHandle = "handle" // rpc -> server: one iod handler invocation
	spanMeta   = "meta"   // rpc -> meta: one manager handler invocation
	spanStore  = "store"  // server -> storage: one Backend/File call
	spanPhase  = "phase"  // Resync / Rebuild / Verify / Scrub of one file
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch. Req is the per-request ID the caller wrapper puts on
// the wire, which the handler wrapper sees as the frame's trace ID; Trace
// is the client operation's own trace ID, shared by every RPC of one op.
type span struct {
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  uint64 `json:"trace,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Node   int    `json:"node"`   // iod index; -1 for the manager or the client side
	Worker int    `json:"worker"` // owning client: worker index, -1 for the admin client
	Bytes  int64  `json:"bytes,omitempty"`
	// Tracer is time the tracer itself spent next to the span, inside its
	// parent (the goroutine lookup that links it): analysis subtracts it
	// so recording does not bill its own cost to the layer.
	Tracer int64 `json:"tracer_ns,omitempty"`
	goid   uint64
}

func (s *span) dur() int64 { return s.End - s.Start }

// counters are always on: the count metrics come from them, so traced and
// untraced runs count the same work.
type counters struct {
	srvCalls   atomic.Int64 // client -> iod calls
	mgrCalls   atomic.Int64 // client -> manager calls
	wireBytes  atomic.Int64 // bytes read + written on client connections
	storeRead  atomic.Int64 // bytes read from iod stores
	storeWrite atomic.Int64 // bytes written to iod stores
	storeSyncs atomic.Int64 // File.Sync calls on iod stores
}

// countSnap is a point-in-time copy of counters.
type countSnap struct {
	srvCalls, mgrCalls, wireBytes, storeRead, storeWrite, storeSyncs int64
}

func (c *counters) snap() countSnap {
	return countSnap{
		c.srvCalls.Load(), c.mgrCalls.Load(), c.wireBytes.Load(),
		c.storeRead.Load(), c.storeWrite.Load(), c.storeSyncs.Load(),
	}
}

func (a countSnap) sub(b countSnap) countSnap {
	return countSnap{
		a.srvCalls - b.srvCalls, a.mgrCalls - b.mgrCalls, a.wireBytes - b.wireBytes,
		a.storeRead - b.storeRead, a.storeWrite - b.storeWrite, a.storeSyncs - b.storeSyncs,
	}
}

// recorder collects counters always and spans while on.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	reqID atomic.Uint64
	count counters

	mu    sync.Mutex
	spans []span

	// flip, when armed, corrupts one byte of the next write to a data
	// store on iod 0 (self-test of the oracle).
	flip atomic.Bool
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and clears the buffer.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine 123 [running]:"). Only traced runs call it: the storage
// wrapper uses it to nest a store call inside the handler that issued it.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	b := buf[len("goroutine "):n]
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// countConn counts every byte through a client connection.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// benchCaller is the client's connection pool to one iod or the manager,
// redialing after failures the way csar.Dial's caller does, with every call
// counted and (traced) recorded. A traced call goes out under a fresh
// per-request ID in the frame's trace field, so the handler wrapper can
// match its span to this one exactly; the op's own trace ID is kept on the
// client span.
type benchCaller struct {
	rec    *recorder
	addr   string
	node   int // iod index, -1 for the manager
	worker int
	next   atomic.Uint32

	mu    sync.Mutex
	conns []*rpc.Client
}

func newBenchCaller(rec *recorder, addr string, node, worker, conns int) *benchCaller {
	return &benchCaller{rec: rec, addr: addr, node: node, worker: worker, conns: make([]*rpc.Client, conns)}
}

func (c *benchCaller) get() (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := int(c.next.Add(1) % uint32(len(c.conns)))
	if c.conns[slot] != nil {
		return c.conns[slot], nil
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: dial %s: %v: %w", c.addr, err, wire.ErrUnavailable)
	}
	c.conns[slot] = rpc.NewClient(&countConn{Conn: conn, n: &c.rec.count.wireBytes}, nil, nil)
	return c.conns[slot], nil
}

func (c *benchCaller) drop(failed *rpc.Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cl := range c.conns {
		if cl == failed {
			failed.Close() //nolint:errcheck // already failed
			c.conns[i] = nil
		}
	}
}

// Close drops every connection; a later call redials.
func (c *benchCaller) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cl := range c.conns {
		if cl != nil {
			cl.Close() //nolint:errcheck // teardown
			c.conns[i] = nil
		}
	}
	return nil
}

func (c *benchCaller) Call(m wire.Msg) (wire.Msg, error) { return c.do(m, 0, 0) }

func (c *benchCaller) CallTimeout(m wire.Msg, timeout time.Duration) (wire.Msg, error) {
	return c.do(m, 0, timeout)
}

func (c *benchCaller) CallTraced(m wire.Msg, trace uint64, timeout time.Duration) (wire.Msg, error) {
	return c.do(m, trace, timeout)
}

func (c *benchCaller) do(m wire.Msg, trace uint64, timeout time.Duration) (wire.Msg, error) {
	if c.node < 0 {
		c.rec.count.mgrCalls.Add(1)
	} else {
		c.rec.count.srvCalls.Add(1)
	}
	cli, err := c.get()
	if err != nil {
		return nil, err
	}
	var req uint64
	on := c.rec.on.Load()
	start := c.rec.now()
	var resp wire.Msg
	if trace != 0 {
		req = c.rec.reqID.Add(1)
		resp, err = cli.CallTraced(m, req, timeout)
	} else {
		resp, err = cli.CallTimeout(m, timeout)
	}
	if on {
		c.rec.add(span{Kind: spanCall, Name: m.Kind().String(), Start: start, End: c.rec.now(),
			Trace: trace, Req: req, Node: c.node, Worker: c.worker})
	}
	if err != nil && errors.Is(err, rpc.ErrClosed) {
		c.drop(cli)
	}
	return resp, err
}

// tracedHandler wraps an iod's handler: when tracing, it records the
// handler interval under the request ID the caller wrapper sent.
func (r *recorder) tracedHandler(node int, h rpc.TracedHandler) rpc.TracedHandler {
	return func(req wire.Msg, trace uint64) (wire.Msg, error) {
		if !r.on.Load() {
			return h(req, trace)
		}
		t0 := r.now()
		g := goid()
		start := r.now()
		resp, err := h(req, trace)
		r.add(span{Kind: spanHandle, Name: req.Kind().String(), Start: start, End: r.now(),
			Req: trace, Node: node, Worker: -1, Tracer: start - t0, goid: g})
		return resp, err
	}
}

// metaHandler wraps the manager's handler the same way.
func (r *recorder) metaHandler(h rpc.Handler) rpc.Handler {
	return func(req wire.Msg) (wire.Msg, error) {
		if !r.on.Load() {
			return h(req)
		}
		start := r.now()
		resp, err := h(req)
		r.add(span{Kind: spanMeta, Name: req.Kind().String(), Start: start, End: r.now(), Node: -1, Worker: -1})
		return resp, err
	}
}

// benchBackend wraps one iod's storage.Backend; every File it opens is
// wrapped too.
type benchBackend struct {
	storage.Backend
	rec  *recorder
	node int
}

func (b *benchBackend) Open(name string) storage.File {
	return &benchFile{File: b.Backend.Open(name), b: b}
}

type benchFile struct {
	storage.File
	b *benchBackend
}

func (f *benchFile) record(name string, start int64, n int) {
	r := f.b.rec
	end := r.now()
	g := goid()
	r.add(span{Kind: spanStore, Name: name, Start: start, End: end, Node: f.b.node, Worker: -1,
		Bytes: int64(n), Tracer: r.now() - end, goid: g})
}

func (f *benchFile) ReadAt(p []byte, off int64) (int, error) {
	r := f.b.rec
	r.count.storeRead.Add(int64(len(p)))
	if !r.on.Load() {
		return f.File.ReadAt(p, off)
	}
	start := r.now()
	n, err := f.File.ReadAt(p, off)
	f.record("read", start, len(p))
	return n, err
}

func (f *benchFile) WriteAt(p []byte, off int64) (int, error) {
	r := f.b.rec
	r.count.storeWrite.Add(int64(len(p)))
	if f.b.node == 0 && len(p) > 0 && strings.HasSuffix(f.Name(), ".data") && r.flip.CompareAndSwap(true, false) {
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 0x5a
		p = q
	}
	if !r.on.Load() {
		return f.File.WriteAt(p, off)
	}
	start := r.now()
	n, err := f.File.WriteAt(p, off)
	f.record("write", start, len(p))
	return n, err
}

func (f *benchFile) Sync() {
	r := f.b.rec
	r.count.storeSyncs.Add(1)
	if !r.on.Load() {
		f.File.Sync()
		return
	}
	start := r.now()
	f.File.Sync()
	f.record("sync", start, 0)
}
