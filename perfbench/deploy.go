package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

	"csar"
	"csar/internal/client"
	"csar/internal/meta"
	"csar/internal/rpc"
	"csar/internal/server"
	"csar/internal/storage"
)

// numIODs is the deployment's I/O server count.
const numIODs = 5

// daemon is one listening endpoint (an iod or the manager) whose listener
// and accepted connections can be killed, the way a crashed process drops
// them.
type daemon struct {
	addr  string
	serve func(net.Conn) // runs until the connection closes

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// listen binds addr ("127.0.0.1:0" the first time, the old address on a
// restart) and accepts until stop.
func (d *daemon) listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.addr = ln.Addr().String()
	d.ln = ln
	d.conns = make(map[net.Conn]struct{})
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			d.mu.Lock()
			if d.ln != ln { // stopped while accepting
				d.mu.Unlock()
				conn.Close() //nolint:errcheck // refusing it
				return
			}
			d.conns[conn] = struct{}{}
			d.wg.Add(1)
			d.mu.Unlock()
			go func() {
				defer d.wg.Done()
				d.serve(conn)
				d.mu.Lock()
				delete(d.conns, conn)
				d.mu.Unlock()
			}()
		}
	}()
	return nil
}

// stop closes the listener and every connection, then waits until the
// accept loop and every serving goroutine (with its in-flight handlers)
// has returned.
func (d *daemon) stop() {
	d.mu.Lock()
	ln := d.ln
	d.ln = nil
	conns := d.conns
	d.conns = nil
	d.mu.Unlock()
	if ln != nil {
		ln.Close() //nolint:errcheck // killing it
	}
	for c := range conns {
		c.Close() //nolint:errcheck // killing it
	}
	d.wg.Wait()
}

// iod is one I/O daemon: server.New over a storage.Dir, behind the
// benchmark's storage wrapper, served by rpc.ServeConnTraced.
type iod struct {
	daemon
	idx int
	dir string
	st  *storage.Dir
	srv *server.Server
}

// deployment is the in-process cluster: five iods, one persistent
// manager, and the clients dialed to them.
type deployment struct {
	rec  *recorder
	root string
	iods []*iod

	mgr   *meta.Manager
	mgrD  daemon
	addrs []string

	mu      sync.Mutex
	clients []*benchClient
}

// benchClient is one client mount with its wrapped callers.
type benchClient struct {
	*client.Client
	srv []*benchCaller
}

func deploy(rec *recorder, root string) (*deployment, error) {
	d := &deployment{rec: rec, root: root}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	for i := range numIODs {
		io := &iod{idx: i, dir: filepath.Join(root, fmt.Sprintf("iod%d", i))}
		d.iods = append(d.iods, io)
		if err := d.startIOD(io, "127.0.0.1:0"); err != nil {
			d.close()
			return nil, err
		}
		d.addrs = append(d.addrs, io.addr)
	}
	m, err := meta.NewPersistent(numIODs, d.addrs, filepath.Join(root, "meta.json"))
	if err != nil {
		d.close()
		return nil, err
	}
	d.mgr = m
	h := rec.metaHandler(m.Handle)
	d.mgrD.serve = func(c net.Conn) { rpc.ServeConn(c, h, nil, nil) } //nolint:errcheck // ends with the connection
	if err := d.mgrD.listen("127.0.0.1:0"); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// startIOD opens the iod's store directory as a fresh process would and
// serves it on addr.
func (d *deployment) startIOD(io *iod, addr string) error {
	st, err := storage.NewDir(io.dir)
	if err != nil {
		return err
	}
	io.st = st
	io.srv = server.New(io.idx, &benchBackend{Backend: st, rec: d.rec, node: io.idx}, server.DefaultOptions())
	h := d.rec.tracedHandler(io.idx, io.srv.HandleTraced)
	io.serve = func(c net.Conn) { rpc.ServeConnTraced(c, h, nil, nil) } //nolint:errcheck // ends with the connection
	return io.listen(addr)
}

// killIOD drops iod i off the network: listener and connections close.
func (d *deployment) killIOD(i int) { d.iods[i].stop() }

// restartIOD brings iod i back on its old address as a fresh server.New on
// the same store (blank=false) or on an emptied one (blank=true), and
// drops every client's stale connections to it.
func (d *deployment) restartIOD(i int, blank bool) error {
	io := d.iods[i]
	if blank {
		if err := os.RemoveAll(io.dir); err != nil {
			return err
		}
	}
	if err := d.startIOD(io, d.addrs[i]); err != nil {
		return fmt.Errorf("restarting iod %d: %w", i, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.clients {
		c.srv[i].Close() //nolint:errcheck // drops dead connections; the next call redials
	}
	return nil
}

// newClient assembles a client the way csar.Dial does — client.NewMulti
// with DefaultPolicy's resilience and DefaultConnsPerServer connections
// per iod — but over the benchmark's counting callers.
func (d *deployment) newClient(worker int) *benchClient {
	mgr := newBenchCaller(d.rec, d.mgrD.addr, -1, worker, 1)
	bc := &benchClient{}
	callers := make([]client.Caller, numIODs)
	for i, a := range d.addrs {
		bc.srv = append(bc.srv, newBenchCaller(d.rec, a, i, worker, csar.DefaultConnsPerServer))
		callers[i] = bc.srv[i]
	}
	bc.Client = client.NewMulti([]client.Caller{mgr}, callers)
	bc.SetPolicy(client.DefaultPolicy())
	d.mu.Lock()
	d.clients = append(d.clients, bc)
	d.mu.Unlock()
	return bc
}

// allocated sums the iods' stores du-style.
func (d *deployment) allocated() int64 {
	var n int64
	for _, io := range d.iods {
		n += io.st.AllocatedBytes()
	}
	return n
}

// close tears everything down and removes the deployment's files.
func (d *deployment) close() {
	d.mu.Lock()
	clients := d.clients
	d.clients = nil
	d.mu.Unlock()
	for _, c := range clients {
		c.Close() //nolint:errcheck // teardown
	}
	for _, io := range d.iods {
		io.stop()
	}
	d.mgrD.stop()
	if d.mgr != nil {
		d.mgr.Close() //nolint:errcheck // teardown; the directory is removed next
	}
	os.RemoveAll(d.root) //nolint:errcheck // best effort
}
