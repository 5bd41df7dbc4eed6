// The cluster experiment measures the sharded federation plane: the five
// bench sources behind 1, 2, and 3 in-process centers, driven closed-loop
// through the gateway-side Cluster scatter/gather, then two chaos phases
// that kill a center and a source primary mid-load and time how long the
// plane takes to answer again. Every run enforces byte-identical results
// against a single-center oracle over the SAME source servers, and the
// chaos phases fail the experiment if even one request errors: failover
// is in-band, so clients never see the death. Results snapshot to
// BENCH_cluster.json:
//
//	ditsbench -exp cluster -baseline   # run and snapshot
//	ditsbench -exp cluster -compare    # run and diff against the snapshot
//
// Throughput and latency are wall clock on whatever host runs the
// experiment; the failed-request columns (always zero) and recovery times
// are the regression signal.
package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dits/internal/cellset"
	"dits/internal/federation"
	"dits/internal/transport"
)

// ClusterSchema identifies the snapshot format.
const ClusterSchema = "dits-bench-cluster/1"

// ClusterEntry is one measured cluster scenario.
type ClusterEntry struct {
	Scenario string  `json:"scenario"`
	Centers  int     `json:"centers"`
	Seconds  float64 `json:"seconds"`
	Requests int64   `json:"requests"`
	Failed   int64   `json:"failed"`
	QPS      float64 `json:"qps"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	// RecoveryMs is the time from killing a center (or a source primary)
	// to the next successful scatter, chaos scenarios only.
	RecoveryMs float64 `json:"recovery_ms,omitempty"`
}

// ClusterReport is the machine-readable result of one cluster run.
type ClusterReport struct {
	Schema    string         `json:"schema"`
	Generated string         `json:"generated,omitempty"`
	NumCPU    int            `json:"num_cpu"`
	Seed      int64          `json:"seed"`
	Results   []ClusterEntry `json:"results"`
}

// benchSwitch wraps a peer with a kill switch: once down, every call
// fails with a plain (non-Remote) error, exactly like a dead TCP
// endpoint.
type benchSwitch struct {
	inner transport.Peer
	down  atomic.Bool
}

func (p *benchSwitch) Call(ctx context.Context, method string, req, resp any) error {
	if p.down.Load() {
		return errors.New("connection refused")
	}
	return p.inner.Call(ctx, method, req, resp)
}

func (p *benchSwitch) Close() error { return nil }

// clusterWorld is one sharded topology plus the single-center oracle
// built over the same source servers.
type clusterWorld struct {
	oracle  *federation.Center
	cluster *federation.Cluster
	queries []cellset.Set
	// centerSwitch[name] kills that center's wire; sourceSwitch kills the
	// primary wire of the one replicated source (nil without replicas).
	centerSwitch  map[string]*benchSwitch
	sourceSwitch  *benchSwitch
	replicated    string // name of the source registered with a replica
	centerServers []*federation.CenterServer
}

func (w *clusterWorld) close() {
	w.cluster.Close()
	for _, cs := range w.centerServers {
		cs.Close()
	}
}

// buildClusterWorld shards the bench sources over numCenters in-process
// centers. With replicas, every center dials one source through a
// primary+replica pair whose primary can be killed; both endpoints reach
// the same server, so a failover cannot change any answer.
func buildClusterWorld(cfg Config, numCenters int, replicas bool) (*clusterWorld, error) {
	servers, g, sds := buildSourceServers(cfg)
	opts := federation.Options{GlobalFilter: true, ClipQuery: true, Sessions: true}
	q := cfg.Q
	if q > 64 {
		q = 64 // the drive loops over the set; a small set keeps it hot
	}
	w := &clusterWorld{
		oracle:       newFederation(g, servers, opts),
		queries:      federationQueries(sds, g, q, cfg.Seed),
		centerSwitch: make(map[string]*benchSwitch, numCenters),
	}
	byName := make(map[string]*federation.SourceServer, len(servers))
	for _, s := range servers {
		byName[s.Name] = s
	}
	peers := make(map[string]transport.Peer, numCenters)
	for i := 0; i < numCenters; i++ {
		name := fmt.Sprintf("center-%d", i)
		c := federation.NewCenter(g, opts)
		cs, err := federation.NewCenterServer(name, c, federation.CenterServerOptions{
			Dial: func(addr string) (transport.Peer, error) {
				srcName, isReplica := strings.CutSuffix(addr, "#replica")
				srv, ok := byName[srcName]
				if !ok {
					return nil, fmt.Errorf("no source at %q", addr)
				}
				peer := transport.Peer(&transport.InProc{
					Name: srv.Name, Handler: srv.Handler(), Metrics: c.Metrics,
				})
				if replicas && !isReplica && srcName == servers[0].Name {
					sw := &benchSwitch{inner: peer}
					w.sourceSwitch = sw
					peer = sw
				}
				return peer, nil
			},
		})
		if err != nil {
			return nil, err
		}
		w.centerServers = append(w.centerServers, cs)
		sw := &benchSwitch{inner: &transport.InProc{
			Name: name, Handler: cs.Handler(), Metrics: &transport.Metrics{},
		}}
		peers[name] = sw
		w.centerSwitch[name] = sw
	}
	w.cluster = federation.NewCluster(g, peers)
	for i, srv := range servers {
		src := federation.ClusterSource{Name: srv.Name, Addr: srv.Name}
		if replicas && i == 0 {
			src.Replicas = []string{srv.Name + "#replica"}
			w.replicated = srv.Name
		}
		if err := w.cluster.AddSource(context.Background(), src); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// checkClusterParity compares scatter/gather answers against the
// single-center oracle, byte for byte, over the query set.
func checkClusterParity(w *clusterWorld, queries []cellset.Set, k int, delta float64) error {
	ctx := context.Background()
	for i, q := range queries {
		want, err := w.oracle.OverlapSearch(ctx, q, k)
		if err != nil {
			return fmt.Errorf("oracle overlap %d: %w", i, err)
		}
		got, err := w.cluster.OverlapSearch(ctx, q, k)
		if err != nil {
			return fmt.Errorf("cluster overlap %d: %w", i, err)
		}
		if len(got) != len(want) {
			return fmt.Errorf("overlap query %d: cluster returned %d results, oracle %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				return fmt.Errorf("overlap query %d result %d: cluster %+v, oracle %+v", i, j, got[j], want[j])
			}
		}
		wantCov, err := w.oracle.CoverageSearch(ctx, q, delta, 4)
		if err != nil {
			return fmt.Errorf("oracle coverage %d: %w", i, err)
		}
		gotCov, err := w.cluster.CoverageSearch(ctx, q, delta, 4)
		if err != nil {
			return fmt.Errorf("cluster coverage %d: %w", i, err)
		}
		if gotCov.Coverage != wantCov.Coverage || gotCov.QueryCoverage != wantCov.QueryCoverage ||
			len(gotCov.Picked) != len(wantCov.Picked) {
			return fmt.Errorf("coverage query %d: cluster %d/%d (%d picks), oracle %d/%d (%d picks)",
				i, gotCov.Coverage, gotCov.QueryCoverage, len(gotCov.Picked),
				wantCov.Coverage, wantCov.QueryCoverage, len(wantCov.Picked))
		}
		for j := range gotCov.Picked {
			if gotCov.Picked[j] != wantCov.Picked[j] {
				return fmt.Errorf("coverage query %d pick %d: cluster %+v, oracle %+v",
					i, j, gotCov.Picked[j], wantCov.Picked[j])
			}
		}
	}
	return nil
}

// driveCluster runs clients closed-loop workers against the cluster for
// the given duration (mostly OJSP, one CJSP every 16th request) and
// returns the latency samples in ms plus request/failure counts. kill, if
// non-nil, fires once at half time and returns a label plus the measured
// recovery duration.
func driveCluster(w *clusterWorld, queries []cellset.Set, k int, delta float64,
	clients int, dur time.Duration, kill func() time.Duration) (samples []float64, requests, failed int64, recovery time.Duration) {
	var (
		mu   sync.Mutex
		reqs atomic.Int64
		errs atomic.Int64
		stop = make(chan struct{})
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			local := make([]float64, 0, 1024)
			for i := c; ; i++ {
				select {
				case <-stop:
					mu.Lock()
					samples = append(samples, local...)
					mu.Unlock()
					return
				default:
				}
				q := queries[i%len(queries)]
				start := time.Now()
				var err error
				if i%16 == 15 {
					_, err = w.cluster.CoverageSearch(ctx, q, delta, 4)
				} else {
					_, err = w.cluster.OverlapSearch(ctx, q, k)
				}
				local = append(local, float64(time.Since(start).Nanoseconds())/1e6)
				reqs.Add(1)
				if err != nil {
					errs.Add(1)
				}
			}
		}(c)
	}
	if kill != nil {
		time.Sleep(dur / 2)
		recovery = kill()
		time.Sleep(dur / 2)
	} else {
		time.Sleep(dur)
	}
	close(stop)
	wg.Wait()
	return samples, reqs.Load(), errs.Load(), recovery
}

// RunCluster executes the cluster experiment, returning the
// machine-readable report and printable tables.
func RunCluster(cfg Config) (ClusterReport, []Table, error) {
	secs := cfg.LoadSecs
	if secs <= 0 {
		secs = 2
	}
	dur := time.Duration(secs * float64(time.Second))
	const clients = 8
	report := ClusterReport{Schema: ClusterSchema, NumCPU: runtime.NumCPU(), Seed: cfg.Seed}

	// Phase 1: throughput sweep over center counts. Parity against the
	// oracle is checked before each drive so a merge bug fails loudly
	// instead of skewing the numbers.
	for _, n := range []int{1, 2, 3} {
		w, err := buildClusterWorld(cfg, n, false)
		if err != nil {
			return report, nil, fmt.Errorf("bench: cluster sweep %d centers: %w", n, err)
		}
		queries := w.queries
		if err := checkClusterParity(w, queries[:min(8, len(queries))], cfg.K, cfg.Delta); err != nil {
			w.close()
			return report, nil, fmt.Errorf("bench: cluster parity (%d centers): %w", n, err)
		}
		samples, reqs, failed, _ := driveCluster(w, queries, cfg.K, cfg.Delta, clients, dur, nil)
		w.close()
		if failed > 0 {
			return report, nil, fmt.Errorf("bench: cluster sweep %d centers: %d of %d requests failed", n, failed, reqs)
		}
		report.Results = append(report.Results, ClusterEntry{
			Scenario: fmt.Sprintf("sweep-%d", n), Centers: n, Seconds: secs,
			Requests: reqs, Failed: failed, QPS: float64(reqs) / secs,
			P50Ms: pctMs(samples, 0.50), P99Ms: pctMs(samples, 0.99),
		})
	}

	// Phase 2: chaos. Kill a center mid-load, then (fresh world) a source
	// primary whose replica takes over. Failover is in-band, so both
	// phases demand zero failed requests, and recovery is the time until
	// the next scatter answers.
	chaos := []struct {
		scenario string
		replicas bool
		kill     func(w *clusterWorld)
	}{
		{"kill-center", false, func(w *clusterWorld) {
			// Kill the center that owns the most sources: the worst re-home.
			var victim string
			most := -1
			for name, srcs := range w.cluster.Shards() {
				if len(srcs) > most {
					victim, most = name, len(srcs)
				}
			}
			w.centerSwitch[victim].down.Store(true)
		}},
		{"kill-source", true, func(w *clusterWorld) {
			w.sourceSwitch.down.Store(true)
		}},
	}
	for _, ch := range chaos {
		w, err := buildClusterWorld(cfg, 3, ch.replicas)
		if err != nil {
			return report, nil, fmt.Errorf("bench: cluster %s: %w", ch.scenario, err)
		}
		queries := w.queries
		probe := queries[0]
		kill := func() time.Duration {
			ch.kill(w)
			start := time.Now()
			for {
				if _, err := w.cluster.OverlapSearch(context.Background(), probe, cfg.K); err == nil {
					return time.Since(start)
				}
			}
		}
		samples, reqs, failed, recovery := driveCluster(w, queries, cfg.K, cfg.Delta, clients, dur, kill)
		// Post-failover parity: the degraded plane must still match the
		// oracle byte for byte (no stale reads, no lost shard).
		parityErr := checkClusterParity(w, queries[:min(8, len(queries))], cfg.K, cfg.Delta)
		w.close()
		if failed > 0 {
			return report, nil, fmt.Errorf("bench: cluster %s: %d of %d requests failed (failover leaked to clients)", ch.scenario, failed, reqs)
		}
		if parityErr != nil {
			return report, nil, fmt.Errorf("bench: cluster %s post-failover: %w", ch.scenario, parityErr)
		}
		report.Results = append(report.Results, ClusterEntry{
			Scenario: ch.scenario, Centers: 3, Seconds: secs,
			Requests: reqs, Failed: failed, QPS: float64(reqs) / secs,
			P50Ms: pctMs(samples, 0.50), P99Ms: pctMs(samples, 0.99),
			RecoveryMs: float64(recovery.Nanoseconds()) / 1e6,
		})
	}

	t := Table{
		ID:    "cluster",
		Title: "Sharded federation plane: scatter/gather throughput and failover recovery",
		Header: []string{
			"scenario", "centers", "requests", "failed", "qps", "p50 ms", "p99 ms", "recovery ms",
		},
		Notes: []string{
			fmt.Sprintf("host CPUs: %d; %d closed-loop clients, %gs per scenario; every scenario is parity-checked against a single-center oracle.", runtime.NumCPU(), clients, secs),
			"kill-center downs the center owning the largest shard mid-load; kill-source downs a replicated source's primary. failed must be 0: failover is in-band.",
		},
	}
	for _, e := range report.Results {
		rec := "-"
		if e.RecoveryMs > 0 {
			rec = fmt.Sprintf("%.2f", e.RecoveryMs)
		}
		t.Rows = append(t.Rows, []string{
			e.Scenario, fmt.Sprintf("%d", e.Centers),
			fmt.Sprintf("%d", e.Requests), fmt.Sprintf("%d", e.Failed),
			fmt.Sprintf("%.0f", e.QPS),
			fmt.Sprintf("%.2f", e.P50Ms), fmt.Sprintf("%.2f", e.P99Ms), rec,
		})
	}
	return report, []Table{t}, nil
}

// WriteCluster stamps and writes the report as indented JSON.
func WriteCluster(path string, r ClusterReport) error {
	r.Generated = time.Now().UTC().Format(time.RFC3339)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadCluster loads a snapshot written by WriteCluster.
func ReadCluster(path string) (ClusterReport, error) {
	var r ClusterReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Schema != ClusterSchema {
		return r, fmt.Errorf("bench: %s has schema %q, want %q", path, r.Schema, ClusterSchema)
	}
	return r, nil
}

// CompareCluster diffs a current run against a snapshot per scenario.
// Throughput and latency drift are informational (hardware bound); a
// failed-request count or a recovery-time blowup is flagged in the notes.
func CompareCluster(base, cur ClusterReport) Table {
	t := Table{
		ID:    "cluster-compare",
		Title: "Sharded federation plane vs baseline snapshot" + clusterGeneratedSuffix(base),
		Header: []string{
			"scenario", "base qps", "now qps", "drift", "base p99", "now p99", "base rec ms", "now rec ms",
		},
		Notes: []string{
			fmt.Sprintf("snapshot host CPUs: %d, current: %d — absolute numbers are comparable only on matching hardware.", base.NumCPU, cur.NumCPU),
			"drift = now/base qps: > 1.00x is faster than the snapshot. failed is always 0 on both sides or the run itself errors.",
		},
	}
	baseBy := make(map[string]ClusterEntry, len(base.Results))
	for _, e := range base.Results {
		baseBy[e.Scenario] = e
	}
	for _, e := range cur.Results {
		b, ok := baseBy[e.Scenario]
		if !ok {
			t.Notes = append(t.Notes, fmt.Sprintf("no baseline entry for scenario %s", e.Scenario))
			continue
		}
		drift := "-"
		if b.QPS > 0 {
			drift = fmt.Sprintf("%.2fx", e.QPS/b.QPS)
		}
		rec := func(v float64) string {
			if v <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", v)
		}
		t.Rows = append(t.Rows, []string{
			e.Scenario,
			fmt.Sprintf("%.0f", b.QPS), fmt.Sprintf("%.0f", e.QPS), drift,
			fmt.Sprintf("%.2f", b.P99Ms), fmt.Sprintf("%.2f", e.P99Ms),
			rec(b.RecoveryMs), rec(e.RecoveryMs),
		})
		if e.Failed > b.Failed {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"WARNING: %s failed requests rose %d -> %d", e.Scenario, b.Failed, e.Failed))
		}
		if b.RecoveryMs > 0 && e.RecoveryMs > 10*b.RecoveryMs && e.RecoveryMs > 100 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"WARNING: %s recovery time rose %.2fms -> %.2fms", e.Scenario, b.RecoveryMs, e.RecoveryMs))
		}
	}
	return t
}

func clusterGeneratedSuffix(base ClusterReport) string {
	if base.Generated == "" {
		return ""
	}
	return " (" + base.Generated + ")"
}

// Cluster adapts RunCluster to the experiment registry (plain -exp
// cluster runs without snapshotting).
func Cluster(cfg Config) []Table {
	_, tables, err := RunCluster(cfg)
	if err != nil {
		panic(err)
	}
	return tables
}
