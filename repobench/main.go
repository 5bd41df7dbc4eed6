// Command repobench is the repository's benchmark. It stands the serving
// stack up in one process — five Table I sources on loopback TCP, a
// federation center with DITS-G filtering, clipping, CJSP sessions and a
// result cache, and the HTTP gateway — and drives it through the front
// door with its own load generator. See README.md for the workloads, the
// metrics, and how to read the traced per-layer table.
//
// Usage (from the repository root):
//
//	bash repobench/run.sh --workload ojsp-open --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end figures, measured with the benchmark's span
// wrappers off; with --trace 1 they are the per-layer figures of a traced
// run of the same inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dits/internal/workload"
)

const (
	// scale is the corpus size as a multiple of Table I (≈1.8k datasets).
	scale = 0.02
	// corpusSeed fixes the corpus: --seed varies the traffic, so set-up
	// does identical work under every seed.
	corpusSeed = 1
	// setupReps is how many times a run times the stack's stand-up;
	// setup_s is the median.
	setupReps = 15
	// stateRoot holds the mutable source's WAL and snapshots, inside the
	// checkout the benchmark runs from.
	stateRoot = ".bench_build/state"
)

// workloadSpec is one traffic mix. Rates are fixed, not adaptive, so the
// same offered load reaches every commit. On a 2-CPU x86-64 Linux
// container, where the closed loops complete ~700 OJSP/s and ~700 mixed
// ops/s, they are about a sixth of capacity. Queueing amplifies every
// change in the host's load: across runs the open-loop p50 spread over a
// fifth of its median at half capacity, and the p90 a fifth at a third.
type workloadSpec struct {
	name     string
	headline opKind // the operation p50_ms and tail_ms describe
	// tail is the percentile of tail_ms: p75 in the open loops, p90 in
	// the closed one. The container's vCPUs are descheduled for up to a
	// quarter of a run (steal). Every open-loop request due in such a pause
	// waits it out, so there a percentile near p90 follows the host's
	// steal from run to run; a closed loop stops sending while paused.
	tail     float64
	openRate float64 // open-loop phase rate in requests/s; 0 = no open phase
	// closedPerSec sizes the closed-loop list: generously above the
	// capacity the phase can drain in its time. 0 = no closed phase.
	closedPerSec float64
	// closedClients is the closed phase's client count; 0 = one per CPU.
	// A CJSP query already fans out over every source and both CPUs, so
	// with two in flight each one's latency turns on which other query
	// shares the CPUs: over the same seeds, CJSP p50 spread 0.15 of its
	// median with two clients and 0.07 with one.
	closedClients int
}

func (w workloadSpec) closedClientCount() int {
	if w.closedClients > 0 {
		return w.closedClients
	}
	return clients()
}

var workloads = []workloadSpec{
	{name: "ojsp-open", headline: opOJSP, tail: 0.75, openRate: 120, closedPerSec: 2000},
	{name: "cjsp-closed", headline: opCJSP, tail: 0.90, closedPerSec: 40, closedClients: 1},
	{name: "mixed-rw", headline: opOJSP, tail: 0.75, openRate: 120},
}

func lookup(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: ojsp-open, cjsp-closed or mixed-rw")
	seed := flag.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := flag.Int("seconds", 10, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	flag.Parse()
	spec, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "repobench: need --workload ojsp-open|cjsp-closed|mixed-rw, --seconds ≥ 1 and --trace 0|1")
		os.Exit(2)
	}
	if err := run(spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(spec workloadSpec, seed int64, dur time.Duration, traced bool) error {
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(stateRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srcs := workload.GenerateAll(scale, corpusSeed)
	prov := provenance(spec, seed, dur)

	plain, err := runPass(spec, srcs, seed, dur, dir, nil)
	if err != nil {
		return err
	}
	if err := plain.timeSetups(srcs, dir, setupReps-1); err != nil {
		return err
	}
	prov["load.late_ms"] = plain.lateP99ms()
	prov["open_requests"], prov["closed_list"] = plain.openList, plain.closedList
	detail, err := plain.endToEnd(spec)
	if err != nil {
		return err
	}
	res := result{Metrics: make(map[string]metric)}
	sumOK := true
	reported := plain
	if !traced {
		res.Attempted, res.Failed = plain.tally.attempted, plain.tally.failed
		for _, k := range endToEndNames {
			res.Metrics[k] = detail[k]
		}
	} else {
		tp, err := runPass(spec, srcs, seed, dur, dir, newRecorder())
		if err != nil {
			return err
		}
		res.Metrics, sumOK = tp.perLayer(spec, plain)
		res.Attempted, res.Failed = tp.tally.attempted, tp.tally.failed
		reported = tp
		if err := writeSpans(spec.name, seed, tp.spans); err != nil {
			return err
		}
		printLayers(spec, res.Metrics)
	}
	onTime := reported.lateP99ms() <= ms(lateLimit)
	if !onTime {
		fmt.Fprintf(os.Stderr, "repobench: invalid run: the generator's p99 lateness %.2f ms exceeds %v\n", reported.lateP99ms(), lateLimit)
	}
	res.Correct = res.Failed == 0 && sumOK && onTime
	line, err := json.Marshal(map[string]any{"provenance": prov, "detail": detail})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEndNames are the metrics a --trace 0 run reports, on every
// workload; README.md says what each means per workload.
var endToEndNames = []string{"setup_s", "heap_mb", "p50_ms", "tail_ms", "bytes_per_op"}

// provenance stamps a result with what it ran on and how it was driven.
func provenance(spec workloadSpec, seed int64, dur time.Duration) map[string]any {
	return map[string]any{
		"workload":       spec.name,
		"seed":           seed,
		"seconds":        dur.Seconds(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":         commit(),
		"scale":          scale,
		"corpus_seed":    corpusSeed,
		"clients":        clients(),
		"closed_clients": spec.closedClientCount(),
		"open_rate":      spec.openRate,
		"tail_quantile":  spec.tail,
		"fsync":          fsyncPolicy,
		"snapshot_every": snapEvery,
		"pool":           poolSize,
		"cache":          cacheCap,
		"theta":          theta,
		"leaf_capacity":  leafCap,
	}
}

// clients is the number of client connections and worker goroutines:
// at most one per CPU.
func clients() int { return runtime.NumCPU() }

// commit identifies the code under test: the git commit when the
// checkout is a repository, else a digest of the Go sources.
func commit() string {
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(b))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if h, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(h))
			}
		} else {
			return ref
		}
	}
	return "src-" + sourceDigest()
}

func writeSpans(name string, seed int64, spans []span) error {
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.tsv", name, seed))
	var b strings.Builder
	b.WriteString("kind\ttrace\trequest\tsource\tname\tstart_ns\tend_ns\n")
	kinds := []string{"gateway", "peer", "source"}
	for _, s := range spans {
		req := s.req
		if s.kind != kindPeer {
			req = s.trace
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%s\t%d\t%d\n", kinds[s.kind], s.trace, req, s.source, s.name, s.iv.start, s.iv.end)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
