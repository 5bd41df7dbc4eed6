package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dits/internal/cache"
	"dits/internal/dataset"
	"dits/internal/federation"
	"dits/internal/gateway"
	"dits/internal/geo"
	"dits/internal/index/dits"
	"dits/internal/ingest"
	"dits/internal/obs"
	"dits/internal/transport"
)

// The serving stack is built from the same public constructors and
// defaults that `ditsgate -remote` and five `ditsserve` processes use.
const (
	theta       = 12   // ditsserve/ditsgate -theta
	leafCap     = 30   // ditsserve -f
	poolSize    = 8    // ditsgate -pool
	cacheCap    = 4096 // ditsgate -cache
	snapEvery   = 256  // ditsserve -snapshot-every
	fsyncPolicy = "always"
	// mutableSource is the one source served through a durable ingest
	// store (ditsserve -wal-dir); the other four are read-only.
	mutableSource = "Transit"
)

// worldBounds is the shared -bounds of every federation member.
var worldBounds = geo.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// stack is one running federation: five TCP source servers, a center
// dialing them through connection pools, a result cache, and the HTTP
// gateway on a loopback listener.
type stack struct {
	grid    geo.Grid
	url     string
	center  *federation.Center
	cache   *cache.Cache
	store   *ingest.Store
	base    []*dataset.Dataset     // the mutable source's corpus
	indexes map[string]*dits.Local // read-only sources' indexes, by name
	pools   []*transport.Pool
	servers []*transport.Server
	httpSrv *http.Server
	dir     string
}

// buildStack stands the federation up over the generated sources, with
// the mutable source's store in a fresh directory under stateDir. With a
// non-nil recorder, the benchmark's span wrappers sit at each layer
// boundary; with nil, the stack is exactly what the daemons run.
func buildStack(srcs []*dataset.Source, stateDir string, rec *recorder) (st *stack, err error) {
	st = &stack{grid: geo.NewGrid(theta, worldBounds), indexes: make(map[string]*dits.Local)}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.dir, err = os.MkdirTemp(stateDir, "stack-"); err != nil {
		return nil, err
	}
	fsync, err := ingest.ParseFsyncMode(fsyncPolicy)
	if err != nil {
		return nil, err
	}
	st.center = federation.NewCenter(st.grid, federation.Options{GlobalFilter: true, ClipQuery: true, Sessions: true})
	st.cache = cache.New(cacheCap)
	st.center.SetCache(st.cache)
	for _, src := range srcs {
		build := func() (*dits.Local, error) { return dits.Build(st.grid, src.Nodes(st.grid), leafCap), nil }
		var srv *federation.SourceServer
		if src.Name == mutableSource {
			st.base = src.Datasets
			st.store, err = ingest.Open(filepath.Join(st.dir, src.Name), ingest.Options{
				Fsync: fsync, SnapshotEvery: snapEvery, Bootstrap: build,
			})
			if err != nil {
				return nil, err
			}
			srv = federation.NewSourceServerWithGrid(src.Name, st.store.Index())
			srv.EnableIngest(st.store)
		} else {
			idx, _ := build()
			st.indexes[src.Name] = idx
			srv = federation.NewSourceServerWithGrid(src.Name, idx)
		}
		handler := srv.Handler()
		if rec != nil {
			handler = rec.wrapSource(src.Name, handler)
		}
		ts, err := transport.ServeWith("127.0.0.1:0", handler, transport.ServeConfig{
			Recorder: obs.NewRecorder(obs.RecorderOptions{Logger: quietLog}),
		})
		if err != nil {
			return nil, err
		}
		st.servers = append(st.servers, ts)
		pool := transport.DialPoolWith(src.Name, ts.Addr(), poolSize, st.center.Metrics, transport.DialConfig{})
		st.pools = append(st.pools, pool)
		var peer transport.Peer = pool
		if rec != nil {
			peer = rec.wrapPeer(src.Name, pool)
		}
		if _, err := st.center.RegisterRemote(context.Background(), peer); err != nil {
			return nil, fmt.Errorf("register %s: %w", src.Name, err)
		}
	}
	gw := gateway.NewWithOptions(st.center, gateway.Options{Logger: quietLog})
	var handler http.Handler = gw.Handler()
	if rec != nil {
		handler = rec.wrapGateway(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go st.httpSrv.Serve(ln)
	return st, nil
}

// close stops everything the stack started and removes its state
// directory. Safe on a partially built stack.
func (st *stack) close() {
	if st.httpSrv != nil {
		st.httpSrv.Close()
	}
	for _, p := range st.pools {
		p.Close()
	}
	for _, s := range st.servers {
		s.Close()
	}
	if st.store != nil {
		st.store.Close()
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// waitReady polls GET /healthz until it answers 200 — the end of set-up.
func waitReady(client *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway not ready after 30s (last error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// oracleCenter is an in-process Center over transport.InProc peers on
// the given indexes, with no cache: the reference the differential suites
// prove equal to the paper's sequential searchers.
func oracleCenter(grid geo.Grid, indexes map[string]*dits.Local) (*federation.Center, error) {
	c := federation.NewCenter(grid, federation.DefaultOptions())
	for name, idx := range indexes {
		srv := federation.NewSourceServerWithGrid(name, idx)
		peer := &transport.InProc{Name: name, Handler: srv.Handler(), Metrics: c.Metrics, Codec: federation.BinaryCodec}
		if _, err := c.RegisterRemote(context.Background(), peer); err != nil {
			return nil, err
		}
	}
	return c, nil
}
